//! Columnar study-log segments (SoA layout for out-of-core worlds).
//!
//! The AoS study log — `Vec<LoggedRequest>` with a `Box<str>` URL per
//! record — is what caps in-RAM worlds near 10⁵ users. This module is the
//! log's columnar twin, one [`SegmentBlock`] per driver chunk, following
//! the PR 9 `FlowBlock` idiom: every `LoggedRequest` field becomes a
//! dense column keyed by row index, URLs live in one shared byte arena
//! with an offset column, and the rare IPv6 addresses sit in sorted side
//! rows next to a packed IPv4 column. A block round-trips exactly to the
//! `StudyChunk` (plus per-row classification labels and fixpoint round
//! counts) it was built from, so storing blocks instead of AoS chunks is
//! invisible to every fingerprint.
//!
//! The streaming driver keeps its committed segments as blocks
//! (DESIGN.md §5j), and the byte encoding is the checkpoint chunk-blob
//! payload: it leads with exact column counts so decoding pre-reserves
//! every column and the downstream interners can size themselves before
//! ingesting the segment (no rehash spikes mid-chunk). Bytes read back
//! from disk are untrusted: [`SegmentBlock::decode_bytes`] validates
//! every offset, referrer and side-table row before a block exists.
//! Blocks also implement [`xborder_webgraph::SegmentPayload`], so a
//! [`xborder_webgraph::SegmentStore`] can hold them.

use crate::extension::{StudyChunk, Visit};
use crate::request::{LoggedRequest, Referrer, RequestId};
use crate::user::UserId;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use xborder_checkpoint::{ByteReader, ByteWriter, DecodeError};
use xborder_dns::PdnsIdObservation;
use xborder_faults::DegradationReport;
use xborder_netsim::time::SimTime;
use xborder_webgraph::{DomainId, PublisherId, SegmentPayload};

/// Referrer column sentinel: no referrer.
const REF_NONE: u32 = u32::MAX;
/// Referrer column sentinel: the first-party page.
const REF_FIRST_PARTY: u32 = u32::MAX - 1;

/// Per-row classification label: easylist-confirmed tracking. The tag
/// values are part of the checkpoint format and must match the streaming
/// driver's label codec in `xborder::stream`.
pub const LABEL_ABP: u8 = 0;
/// Per-row label: semi-automatic (Sect. 4.2) tracking.
pub const LABEL_SEMI: u8 = 1;
/// Per-row label: clean.
pub const LABEL_CLEAN: u8 = 2;

/// One study segment in columnar (SoA) form: the visits, faulted
/// requests, pDNS observations, per-row labels, fixpoint round counts
/// and counter deltas of one contiguous user range.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegmentBlock {
    /// First user id (inclusive) this segment covers.
    pub user_start: u32,
    /// Last user id (exclusive).
    pub user_end: u32,

    // Visit columns (generation order, user-major).
    v_user: Vec<u32>,
    v_publisher: Vec<u32>,
    v_time: Vec<u64>,

    // Request columns (generation order; referrers are segment-local).
    r_user: Vec<u32>,
    r_time: Vec<u64>,
    r_first_party: Vec<u32>,
    r_publisher: Vec<u32>,
    r_host: Vec<u32>,
    /// Segment-local parent row, or [`REF_NONE`] / [`REF_FIRST_PARTY`].
    r_referrer: Vec<u32>,
    /// Row `i`'s URL is `url_bytes[url_off[i] as usize..url_off[i + 1] as usize]`.
    url_off: Vec<u32>,
    url_bytes: Vec<u8>,
    /// Packed IPv4 octets; rows with an IPv6 address hold 0 here and a
    /// side row below.
    r_ip4: Vec<u32>,
    /// `(row, octets)` for IPv6 rows, sorted by row.
    r_ip6: Vec<(u32, [u8; 16])>,

    // pDNS observation columns (user order).
    o_host: Vec<u32>,
    o_time: Vec<u64>,
    o_ip4: Vec<u32>,
    o_ip6: Vec<(u32, [u8; 16])>,

    /// Per-request classification labels ([`LABEL_ABP`] / [`LABEL_SEMI`] /
    /// [`LABEL_CLEAN`]); empty until the segment is classified.
    labels: Vec<u8>,
    /// Stage-2 fixpoint rounds the segment's classification ran.
    pub stage2_rounds: u32,
    /// Stage-3 fixpoint rounds.
    pub stage3_rounds: u32,
    /// The chunk report's commutative counters, in
    /// [`DegradationReport::counter_values`] order.
    counters: [u64; DegradationReport::N_COUNTERS],
}

fn pack_ip(ip: IpAddr, row: u32, ip4: &mut Vec<u32>, ip6: &mut Vec<(u32, [u8; 16])>) {
    match ip {
        IpAddr::V4(v4) => ip4.push(u32::from(v4)),
        IpAddr::V6(v6) => {
            ip4.push(0);
            ip6.push((row, v6.octets()));
        }
    }
}

fn unpack_ip(row: usize, ip4: &[u32], ip6: &[(u32, [u8; 16])]) -> IpAddr {
    match ip6.binary_search_by_key(&(row as u32), |&(r, _)| r) {
        Ok(pos) => IpAddr::V6(Ipv6Addr::from(ip6[pos].1)),
        Err(_) => IpAddr::V4(Ipv4Addr::from(ip4[row])),
    }
}

impl SegmentBlock {
    /// Builds a block from a simulated-and-classified chunk. `labels` are
    /// per-request tags (pass an empty slice for an unclassified chunk).
    ///
    /// # Panics
    /// If `labels` is non-empty but shorter than the request count, or a
    /// referrer row collides with the sentinel space (> 4 × 10⁹ rows).
    pub fn from_chunk(
        chunk: &StudyChunk,
        labels: &[u8],
        stage2_rounds: u32,
        stage3_rounds: u32,
        user_range: (u32, u32),
    ) -> SegmentBlock {
        assert!(
            labels.is_empty() || labels.len() == chunk.requests.len(),
            "labels/requests length mismatch"
        );
        let n_req = chunk.requests.len();
        let mut b = SegmentBlock {
            user_start: user_range.0,
            user_end: user_range.1,
            v_user: Vec::with_capacity(chunk.visits.len()),
            v_publisher: Vec::with_capacity(chunk.visits.len()),
            v_time: Vec::with_capacity(chunk.visits.len()),
            r_user: Vec::with_capacity(n_req),
            r_time: Vec::with_capacity(n_req),
            r_first_party: Vec::with_capacity(n_req),
            r_publisher: Vec::with_capacity(n_req),
            r_host: Vec::with_capacity(n_req),
            r_referrer: Vec::with_capacity(n_req),
            url_off: Vec::with_capacity(n_req + 1),
            url_bytes: Vec::with_capacity(chunk.requests.iter().map(|r| r.url.len()).sum()),
            r_ip4: Vec::with_capacity(n_req),
            r_ip6: Vec::new(),
            o_host: Vec::with_capacity(chunk.observations.len()),
            o_time: Vec::with_capacity(chunk.observations.len()),
            o_ip4: Vec::with_capacity(chunk.observations.len()),
            o_ip6: Vec::new(),
            labels: labels.to_vec(),
            stage2_rounds,
            stage3_rounds,
            counters: chunk.report.counter_values(),
        };
        for v in &chunk.visits {
            b.v_user.push(v.user.0);
            b.v_publisher.push(v.publisher.0);
            b.v_time.push(v.time.0);
        }
        b.url_off.push(0);
        for (row, r) in chunk.requests.iter().enumerate() {
            b.r_user.push(r.user.0);
            b.r_time.push(r.time.0);
            b.r_first_party.push(r.first_party.0);
            b.r_publisher.push(r.publisher.0);
            b.r_host.push(r.host.0);
            b.r_referrer.push(match r.referrer {
                Referrer::None => REF_NONE,
                Referrer::FirstParty => REF_FIRST_PARTY,
                Referrer::Request(RequestId(p)) => {
                    assert!(p < REF_FIRST_PARTY, "request row collides with sentinel");
                    p
                }
            });
            b.url_bytes.extend_from_slice(r.url.as_bytes());
            assert!(b.url_bytes.len() <= u32::MAX as usize, "URL arena > 4 GiB");
            b.url_off.push(b.url_bytes.len() as u32);
            pack_ip(r.ip, row as u32, &mut b.r_ip4, &mut b.r_ip6);
        }
        for (row, o) in chunk.observations.iter().enumerate() {
            b.o_host.push(o.host.0);
            b.o_time.push(o.time.0);
            pack_ip(o.ip, row as u32, &mut b.o_ip4, &mut b.o_ip6);
        }
        b
    }

    /// Reconstructs the AoS chunk plus `(labels, stage2, stage3)` this
    /// block was built from — the exact inverse of
    /// [`SegmentBlock::from_chunk`] (the report carries counters only;
    /// timings are run-level state and decode as zero, exactly like the
    /// checkpoint codec before segmentation).
    pub fn to_chunk(&self) -> (StudyChunk, Vec<u8>, u32, u32) {
        let mut visits = Vec::with_capacity(self.n_visits());
        for i in 0..self.n_visits() {
            visits.push(Visit {
                user: UserId(self.v_user[i]),
                publisher: PublisherId(self.v_publisher[i]),
                time: SimTime(self.v_time[i]),
            });
        }
        let mut requests = Vec::with_capacity(self.n_requests());
        for i in 0..self.n_requests() {
            requests.push(LoggedRequest {
                user: UserId(self.r_user[i]),
                time: SimTime(self.r_time[i]),
                first_party: DomainId(self.r_first_party[i]),
                publisher: PublisherId(self.r_publisher[i]),
                url: self.url(i).into(),
                host: DomainId(self.r_host[i]),
                referrer: match self.r_referrer[i] {
                    REF_NONE => Referrer::None,
                    REF_FIRST_PARTY => Referrer::FirstParty,
                    p => Referrer::Request(RequestId(p)),
                },
                ip: unpack_ip(i, &self.r_ip4, &self.r_ip6),
            });
        }
        let chunk = StudyChunk {
            visits,
            requests,
            observations: self.observations_vec(),
            report: DegradationReport::from_counter_values(&self.counters),
        };
        (chunk, self.labels.clone(), self.stage2_rounds, self.stage3_rounds)
    }

    /// Visit rows.
    pub fn n_visits(&self) -> usize {
        self.v_user.len()
    }

    /// Request rows.
    pub fn n_requests(&self) -> usize {
        self.r_user.len()
    }

    /// pDNS observation rows.
    pub fn n_observations(&self) -> usize {
        self.o_host.len()
    }

    /// Row `i`'s URL, straight from the arena (no allocation).
    pub fn url(&self, i: usize) -> &str {
        let s = self.url_off[i] as usize;
        let e = self.url_off[i + 1] as usize;
        std::str::from_utf8(&self.url_bytes[s..e]).expect("arena holds UTF-8 URL bytes")
    }

    /// Row `i`'s user id.
    pub fn request_user(&self, i: usize) -> u32 {
        self.r_user[i]
    }

    /// Row `i`'s response IP.
    pub fn request_ip(&self, i: usize) -> IpAddr {
        unpack_ip(i, &self.r_ip4, &self.r_ip6)
    }

    /// Per-row labels (empty if the segment was stored unclassified).
    pub fn labels(&self) -> &[u8] {
        &self.labels
    }

    /// True if row `i` is labelled tracking by either method.
    pub fn is_tracking(&self, i: usize) -> bool {
        self.labels[i] != LABEL_CLEAN
    }

    /// The chunk report's commutative counters (counters only — absorb
    /// with `DegradationReport::from_counter_values`).
    pub fn counters(&self) -> DegradationReport {
        DegradationReport::from_counter_values(&self.counters)
    }

    /// Materializes the pDNS observations (small: one row per DNS miss).
    pub fn observations_vec(&self) -> Vec<PdnsIdObservation> {
        let mut out = Vec::with_capacity(self.n_observations());
        for i in 0..self.n_observations() {
            out.push(PdnsIdObservation {
                host: DomainId(self.o_host[i]),
                ip: unpack_ip(i, &self.o_ip4, &self.o_ip6),
                time: SimTime(self.o_time[i]),
            });
        }
        out
    }

    /// Serializes the block. The header leads with every column count so
    /// [`SegmentBlock::decode_bytes`] (and interners fed from the
    /// decoded segment) can pre-reserve exactly.
    pub fn encode_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(
            64 + self.n_visits() * 16
                + self.n_requests() * 33
                + self.url_bytes.len()
                + self.n_observations() * 16
                + self.labels.len(),
        );
        w.put_u32(self.user_start);
        w.put_u32(self.user_end);
        w.put_usize(self.n_visits());
        w.put_usize(self.n_requests());
        w.put_usize(self.n_observations());
        w.put_usize(self.url_bytes.len());
        w.put_usize(self.r_ip6.len());
        w.put_usize(self.o_ip6.len());
        w.put_usize(self.labels.len());
        w.put_u32(self.stage2_rounds);
        w.put_u32(self.stage3_rounds);
        for &v in &self.counters {
            w.put_u64(v);
        }
        for &v in &self.v_user {
            w.put_u32(v);
        }
        for &v in &self.v_publisher {
            w.put_u32(v);
        }
        for &v in &self.v_time {
            w.put_u64(v);
        }
        for &v in &self.r_user {
            w.put_u32(v);
        }
        for &v in &self.r_time {
            w.put_u64(v);
        }
        for &v in &self.r_first_party {
            w.put_u32(v);
        }
        for &v in &self.r_publisher {
            w.put_u32(v);
        }
        for &v in &self.r_host {
            w.put_u32(v);
        }
        for &v in &self.r_referrer {
            w.put_u32(v);
        }
        // url_off[0] is always 0; store the n trailing offsets.
        for &v in &self.url_off[1..] {
            w.put_u32(v);
        }
        w.put_bytes(&self.url_bytes);
        for &v in &self.r_ip4 {
            w.put_u32(v);
        }
        for &(row, octets) in &self.r_ip6 {
            w.put_u32(row);
            w.put_bytes(&octets);
        }
        for &v in &self.o_host {
            w.put_u32(v);
        }
        for &v in &self.o_time {
            w.put_u64(v);
        }
        for &v in &self.o_ip4 {
            w.put_u32(v);
        }
        for &(row, octets) in &self.o_ip6 {
            w.put_u32(row);
            w.put_bytes(&octets);
        }
        w.put_bytes(&self.labels);
        w.into_bytes()
    }

    /// Reverses [`SegmentBlock::encode_bytes`]. The bytes may come from
    /// disk, so nothing in them is trusted: pre-reservation from a header
    /// count is capped by the bytes actually left, and a block whose URL
    /// offsets, referrer rows or IPv6 side rows could not have been
    /// encoded is a typed [`DecodeError`] — never a panic in a later
    /// accessor.
    pub fn decode_bytes(bytes: &[u8]) -> Result<SegmentBlock, DecodeError> {
        let mut r = ByteReader::new(bytes);
        let user_start = r.u32()?;
        let user_end = r.u32()?;
        let n_visits = r.len_prefix()?;
        let n_requests = r.len_prefix()?;
        let n_obs = r.len_prefix()?;
        let url_len = r.len_prefix()?;
        let n_r_ip6 = r.len_prefix()?;
        let n_o_ip6 = r.len_prefix()?;
        let n_labels = r.len_prefix()?;
        let stage2_rounds = r.u32()?;
        let stage3_rounds = r.u32()?;
        let mut counters = [0u64; DegradationReport::N_COUNTERS];
        for slot in &mut counters {
            *slot = r.u64()?;
        }
        fn col_u32(r: &mut ByteReader<'_>, n: usize) -> Result<Vec<u32>, DecodeError> {
            let mut v = Vec::with_capacity(n.min(r.remaining() / 4));
            for _ in 0..n {
                v.push(r.u32()?);
            }
            Ok(v)
        }
        fn col_u64(r: &mut ByteReader<'_>, n: usize) -> Result<Vec<u64>, DecodeError> {
            let mut v = Vec::with_capacity(n.min(r.remaining() / 8));
            for _ in 0..n {
                v.push(r.u64()?);
            }
            Ok(v)
        }
        /// An IPv6 side table: rows strictly increasing (`unpack_ip`
        /// binary-searches them) and below `n_rows`.
        fn col_ip6(
            r: &mut ByteReader<'_>,
            n: usize,
            n_rows: usize,
            at: usize,
        ) -> Result<Vec<(u32, [u8; 16])>, DecodeError> {
            let mut v: Vec<(u32, [u8; 16])> = Vec::with_capacity(n.min(r.remaining() / 20));
            for _ in 0..n {
                let row = r.u32()?;
                let octets: [u8; 16] = r.bytes(16)?.try_into().expect("16 bytes");
                if row as usize >= n_rows || v.last().is_some_and(|&(prev, _)| prev >= row) {
                    return Err(DecodeError {
                        offset: at,
                        detail: format!("IPv6 side row {row} unsorted or not below {n_rows} rows"),
                    });
                }
                v.push((row, octets));
            }
            Ok(v)
        }
        let at = |r: &ByteReader<'_>| bytes.len() - r.remaining();
        let v_user = col_u32(&mut r, n_visits)?;
        let v_publisher = col_u32(&mut r, n_visits)?;
        let v_time = col_u64(&mut r, n_visits)?;
        let r_user = col_u32(&mut r, n_requests)?;
        let r_time = col_u64(&mut r, n_requests)?;
        let r_first_party = col_u32(&mut r, n_requests)?;
        let r_publisher = col_u32(&mut r, n_requests)?;
        let r_host = col_u32(&mut r, n_requests)?;
        let referrer_at = at(&r);
        let r_referrer = col_u32(&mut r, n_requests)?;
        if let Some(row) = (0..n_requests)
            .find(|&i| r_referrer[i] < REF_FIRST_PARTY && r_referrer[i] as usize >= i)
        {
            return Err(DecodeError {
                offset: referrer_at,
                detail: format!(
                    "row {row} refers to row {}, not an earlier one",
                    r_referrer[row]
                ),
            });
        }
        let url_off_at = at(&r);
        let mut url_off = Vec::with_capacity(n_requests.min(r.remaining() / 4) + 1);
        url_off.push(0);
        for _ in 0..n_requests {
            url_off.push(r.u32()?);
        }
        let url_bytes = r.bytes(url_len)?.to_vec();
        let bad_url = |detail: String| DecodeError {
            offset: url_off_at,
            detail,
        };
        if url_off[n_requests] as usize != url_len {
            return Err(bad_url(format!(
                "URL offsets end at {}, arena holds {url_len} bytes",
                url_off[n_requests]
            )));
        }
        for (row, w) in url_off.windows(2).enumerate() {
            let (s, e) = (w[0] as usize, w[1] as usize);
            if s > e || e > url_len {
                return Err(bad_url(format!(
                    "row {row} URL span {s}..{e} is not in 0..{url_len}"
                )));
            }
            if std::str::from_utf8(&url_bytes[s..e]).is_err() {
                return Err(bad_url(format!("row {row} URL is not UTF-8")));
            }
        }
        let r_ip4 = col_u32(&mut r, n_requests)?;
        let r_ip6_at = at(&r);
        let r_ip6 = col_ip6(&mut r, n_r_ip6, n_requests, r_ip6_at)?;
        let o_host = col_u32(&mut r, n_obs)?;
        let o_time = col_u64(&mut r, n_obs)?;
        let o_ip4 = col_u32(&mut r, n_obs)?;
        let o_ip6_at = at(&r);
        let o_ip6 = col_ip6(&mut r, n_o_ip6, n_obs, o_ip6_at)?;
        let labels = r.bytes(n_labels)?.to_vec();
        r.finish()?;
        Ok(SegmentBlock {
            user_start,
            user_end,
            v_user,
            v_publisher,
            v_time,
            r_user,
            r_time,
            r_first_party,
            r_publisher,
            r_host,
            r_referrer,
            url_off,
            url_bytes,
            r_ip4,
            r_ip6,
            o_host,
            o_time,
            o_ip4,
            o_ip6,
            labels,
            stage2_rounds,
            stage3_rounds,
            counters,
        })
    }

    /// Logical resident footprint: column lengths × element sizes. Based
    /// on lengths rather than capacities so the figure is deterministic.
    pub fn resident_bytes_logical(&self) -> usize {
        (self.v_user.len() + self.v_publisher.len()) * 4
            + self.v_time.len() * 8
            + (self.r_user.len()
                + self.r_first_party.len()
                + self.r_publisher.len()
                + self.r_host.len()
                + self.r_referrer.len()
                + self.r_ip4.len()
                + self.url_off.len())
                * 4
            + self.r_time.len() * 8
            + self.url_bytes.len()
            + self.r_ip6.len() * 20
            + (self.o_host.len() + self.o_ip4.len()) * 4
            + self.o_time.len() * 8
            + self.o_ip6.len() * 20
            + self.labels.len()
    }
}

impl SegmentPayload for SegmentBlock {
    fn encode(&self) -> Vec<u8> {
        self.encode_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<SegmentBlock, String> {
        SegmentBlock::decode_bytes(bytes).map_err(|e| e.to_string())
    }

    fn resident_bytes(&self) -> usize {
        self.resident_bytes_logical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_chunk() -> StudyChunk {
        let report = DegradationReport {
            requests_generated: 3,
            requests_delivered: 3,
            dns_attempts: 5,
            ..Default::default()
        };
        StudyChunk {
            visits: vec![
                Visit {
                    user: UserId(7),
                    publisher: PublisherId(2),
                    time: SimTime(100),
                },
                Visit {
                    user: UserId(8),
                    publisher: PublisherId(3),
                    time: SimTime(220),
                },
            ],
            requests: vec![
                LoggedRequest {
                    user: UserId(7),
                    time: SimTime(101),
                    first_party: DomainId(10),
                    publisher: PublisherId(2),
                    url: "https://ads.t.com/pixel?id=1".into(),
                    host: DomainId(11),
                    referrer: Referrer::FirstParty,
                    ip: "1.2.3.4".parse().unwrap(),
                },
                LoggedRequest {
                    user: UserId(7),
                    time: SimTime(102),
                    first_party: DomainId(10),
                    publisher: PublisherId(2),
                    url: "https://sync.x.com/um?rtb=9".into(),
                    host: DomainId(12),
                    referrer: Referrer::Request(RequestId(0)),
                    ip: "2001:db8::7".parse().unwrap(),
                },
                LoggedRequest {
                    user: UserId(8),
                    time: SimTime(221),
                    first_party: DomainId(13),
                    publisher: PublisherId(3),
                    url: "https://cdn.y.com/w.js".into(),
                    host: DomainId(14),
                    referrer: Referrer::None,
                    ip: "5.6.7.8".parse().unwrap(),
                },
            ],
            observations: vec![PdnsIdObservation {
                host: DomainId(11),
                ip: "1.2.3.4".parse().unwrap(),
                time: SimTime(101),
            }],
            report,
        }
    }

    #[test]
    fn block_round_trips_chunk_exactly() {
        let chunk = sample_chunk();
        let labels = vec![LABEL_ABP, LABEL_SEMI, LABEL_CLEAN];
        let block = SegmentBlock::from_chunk(&chunk, &labels, 4, 2, (7, 9));
        assert_eq!(block.n_visits(), 2);
        assert_eq!(block.n_requests(), 3);
        assert_eq!(block.url(1), "https://sync.x.com/um?rtb=9");
        assert_eq!(block.request_ip(1), "2001:db8::7".parse::<IpAddr>().unwrap());
        assert!(block.is_tracking(1));
        assert!(!block.is_tracking(2));
        let (back, labels_back, s2, s3) = block.to_chunk();
        assert_eq!(back.visits, chunk.visits);
        assert_eq!(back.requests, chunk.requests);
        assert_eq!(back.observations, chunk.observations);
        assert_eq!(back.report.counter_values(), chunk.report.counter_values());
        assert_eq!(labels_back, labels);
        assert_eq!((s2, s3), (4, 2));
    }

    #[test]
    fn block_bytes_round_trip() {
        let chunk = sample_chunk();
        let labels = vec![LABEL_CLEAN, LABEL_ABP, LABEL_CLEAN];
        let block = SegmentBlock::from_chunk(&chunk, &labels, 3, 1, (7, 9));
        let bytes = block.encode_bytes();
        let back = SegmentBlock::decode_bytes(&bytes).unwrap();
        assert_eq!(back, block);
        // Deterministic encoding (spill files rely on it).
        assert_eq!(back.encode_bytes(), bytes);
    }

    #[test]
    fn truncated_bytes_are_typed_errors() {
        let chunk = sample_chunk();
        let block = SegmentBlock::from_chunk(&chunk, &[], 0, 0, (7, 9));
        let bytes = block.encode_bytes();
        for cut in [10, bytes.len() / 2, bytes.len() - 1] {
            assert!(SegmentBlock::decode_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage is rejected too (finish()).
        let mut long = bytes.clone();
        long.push(0);
        assert!(SegmentBlock::decode_bytes(&long).is_err());
    }

    #[test]
    fn empty_block_round_trips() {
        let chunk = StudyChunk {
            visits: vec![],
            requests: vec![],
            observations: vec![],
            report: DegradationReport::default(),
        };
        let block = SegmentBlock::from_chunk(&chunk, &[], 0, 0, (0, 0));
        let back = SegmentBlock::decode_bytes(&block.encode_bytes()).unwrap();
        assert_eq!(back, block);
        assert_eq!(back.resident_bytes_logical(), 4); // url_off[0]
    }

    /// Encodes `block` after `corrupt` edits its columns (the encoder
    /// trusts its input) and returns the decode error.
    fn decode_corrupted(corrupt: impl FnOnce(&mut SegmentBlock)) -> DecodeError {
        let mut block = SegmentBlock::from_chunk(&sample_chunk(), &[], 0, 0, (7, 9));
        corrupt(&mut block);
        SegmentBlock::decode_bytes(&block.encode_bytes()).expect_err("corrupt block decoded")
    }

    #[test]
    fn url_offsets_past_the_arena_are_rejected() {
        let err = decode_corrupted(|b| b.url_off[1] = 10_000);
        assert!(err.detail.contains("URL span"), "{err}");
    }

    #[test]
    fn decreasing_url_offsets_are_rejected() {
        let err = decode_corrupted(|b| b.url_off.swap(1, 2));
        assert!(err.detail.contains("URL span"), "{err}");
    }

    #[test]
    fn non_utf8_url_bytes_are_rejected() {
        let err = decode_corrupted(|b| b.url_bytes[0] = 0xff);
        assert!(err.detail.contains("not UTF-8"), "{err}");
    }

    #[test]
    fn forward_referrer_rows_are_rejected() {
        // Row 1 refers to row 5 of a 3-row block; a self-reference is
        // just as corrupt.
        let err = decode_corrupted(|b| b.r_referrer[1] = 5);
        assert!(err.detail.contains("not an earlier one"), "{err}");
        let err = decode_corrupted(|b| b.r_referrer[1] = 1);
        assert!(err.detail.contains("not an earlier one"), "{err}");
    }

    #[test]
    fn ipv6_side_rows_must_be_sorted_and_in_range() {
        let err = decode_corrupted(|b| b.r_ip6[0].0 = 3);
        assert!(err.detail.contains("IPv6 side row"), "{err}");
        let err = decode_corrupted(|b| {
            b.r_ip6.push((0, [0; 16]));
            b.r_ip6.push((2, [0; 16]));
        });
        assert!(err.detail.contains("IPv6 side row"), "{err}");
        let err = decode_corrupted(|b| b.o_ip6.push((1, [0; 16])));
        assert!(err.detail.contains("IPv6 side row"), "{err}");
    }

    #[test]
    fn huge_header_counts_are_short_reads_not_allocations() {
        // A header claiming 2^62 visits over an otherwise empty body must
        // fail on the first missing row, not reserve the claimed columns.
        let mut w = ByteWriter::new();
        w.put_u32(0);
        w.put_u32(1);
        w.put_usize(1 << 62);
        for _ in 0..6 {
            w.put_usize(0);
        }
        w.put_u32(0);
        w.put_u32(0);
        for _ in 0..DegradationReport::N_COUNTERS {
            w.put_u64(0);
        }
        w.put_u32(0);
        let err = SegmentBlock::decode_bytes(&w.into_bytes()).unwrap_err();
        assert!(err.detail.contains("short read"), "{err}");
    }
}
