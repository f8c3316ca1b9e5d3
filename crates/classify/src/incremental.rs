//! The classifier's per-chunk stages, and the incremental classifier that
//! runs them chunk by chunk with cross-chunk state.
//!
//! Every classification — batch, streaming and worldscale — runs the same
//! per-chunk pieces, in this order:
//!
//! 1. *Intern.* The chunk's URLs are deduplicated into chunk-local dense
//!    ids by an open-addressing table (`UrlTable`) whose equality probes
//!    compare against the most recent occurrence in the live request slice.
//! 2. *Stage 1.* Each distinct URL gets its blocklist verdict once, through
//!    the compiled [`RuleEngine`] (DESIGN.md §5h): hosts resolve once per
//!    unique host to a dense [`HostRow`] (always / never / url-dependent +
//!    the host's TLD id), and only url-dependent rows pay an automaton scan.
//! 3. *Stage 2.* Tracking labels propagate along referrer edges. Referrer
//!    indices in a compacted log point *backwards* (a parent is logged
//!    before its children), so one ordered forward sweep reaches the
//!    fixpoint. Should an input violate that ordering, the sweep detects the
//!    forward edge and falls back to an explicit BFS worklist that runs to
//!    true convergence, so deep chains are never silently truncated.
//! 4. *Stage 3.* Remaining argument-carrying requests are keyword-matched
//!    (memoized per unique URL), then labels re-propagate from exactly the
//!    newly labeled requests through the same worklist.
//! 5. *Table 2.* One walk over the labels counts requests and sets seen-bits
//!    per dense host / TLD / URL id for the distinct counts.
//!
//! The two entry points differ only in what surrounds those pieces:
//!
//! - `classify_log` (behind [`crate::classify`]) treats the whole log as
//!   one chunk: chunk-local URL ids are the final ids, the per-URL memos
//!   start fresh, and the seen-bits are sized to the log's distinct values.
//!   It builds no owned URL copies and no second hash table.
//! - [`IncrementalClassifier::append_chunk`] (the streaming and worldscale
//!   drivers) adds the cross-chunk work on top: it resolves each
//!   chunk-distinct URL to a stream-wide id through an owned URL arena and
//!   a second dedup table, and persists the host rows, the per-URL memos
//!   (argument presence, keyword verdict, url-dependent gate verdict — all
//!   pure functions of the URL string, so a memo filled in chunk 0 is exact
//!   in chunk 40) and the seen-bits, so the running Table-2 counts absorb
//!   chunk by chunk and finalize re-walks nothing.
//!
//! Referrer edges are positional within a chunk and never cross users
//! (hence never cross chunk boundaries — chunks are whole-user ranges), so
//! the fixpoint over the concatenated log decomposes exactly into per-chunk
//! fixpoints. Labels are monotone (Clean → Semi/AbpTracking, never back),
//! so a chunk's labels are final the moment the chunk is processed.
//!
//! # Determinism
//!
//! Feeding chunks in log order reproduces `classify_log` bit for bit, for
//! every chunking: a URL's (and host's, and TLD's) dense id is its global
//! first-occurrence rank either way, the stage verdicts are per-request or
//! per-chunk-closed, and the absorbed counts walk requests in the same
//! global order over the same seen-bits. This module's tests pin both
//! routes against a naive reference classifier; `tests/streaming_resume.rs`
//! pins the streaming driver against the batch fingerprints.
//!
//! # Serialization
//!
//! [`IncrementalClassifier::encode_delta`]/[`IncrementalClassifier::apply_delta`]
//! move the state through the `xborder-checkpoint` codec so a killed
//! streaming run resumes without re-deriving it (format: DESIGN.md §5g).
//! Each delta carries only what changed since the previous one — new
//! unique URLs/hosts plus the sparse memo/seen-bit mutations to older
//! entries — so the total serialized volume across a stream is O(unique
//! values), not O(chunks × state). Replaying a checkpoint applies the
//! chunk deltas in order, which reconstructs the exact live state. Gates,
//! TLD ids and the dedup table are *rebuilt* on apply from the stored
//! unique strings — they are deterministic functions of (filter lists,
//! domain table), both of which the resuming process re-derives from the
//! seed before the store is opened.

use crate::classifier::{Classification, ClassificationResult, ClassifierStages, MethodCounts};
use crate::engine::{HostRow, KeywordScanner, RuleEngine};
use crate::rules::FilterList;
use std::collections::VecDeque;
use xborder_browser::{LoggedRequest, Referrer};
use xborder_checkpoint::{ByteReader, ByteWriter, DecodeError};
use xborder_webgraph::{fx_hash, DomainId, DomainTable};

/// Tri-state memo values (shared by the args/keyword/gate memos).
const MEMO_UNKNOWN: u8 = 0;
const MEMO_NO: u8 = 1;
const MEMO_YES: u8 = 2;

/// Sentinel in the per-request referrer view for "no positional referrer".
const NO_REFERRER: u32 = u32::MAX;

/// Dedup-probe hash for URL strings: FxHash over the final 32 bytes,
/// mixed with the length. Simulator URLs share long `scheme://host/path`
/// prefixes and differ in their identity-token/query tails, so the tail
/// carries nearly all the entropy at a fraction of the whole-string
/// hashing cost. Safe to weaken: the hash only *locates* probe slots —
/// equality is always verified byte-for-byte, and interned ids are
/// assigned in first-occurrence order, so collisions cost a compare, never
/// a wrong id.
fn url_hash(bytes: &[u8]) -> u64 {
    fx_hash(&bytes[bytes.len().saturating_sub(32)..])
        .wrapping_add((bytes.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One chunk's classification, emitted by
/// [`IncrementalClassifier::append_chunk`]. `labels` is parallel to the
/// chunk's request slice; the rounds fields have the same per-chunk
/// semantics as [`crate::ClassificationResult`], so the streaming driver
/// reassembles whole-log rounds the same way it did for per-chunk batch
/// classification (`1 + max(stage2 - 1)` / `max(stage3)`).
#[derive(Debug, Clone)]
pub struct ChunkClassification {
    /// Per-request labels, parallel to the chunk slice.
    pub labels: Vec<Classification>,
    /// Stage-2 sweep count for this chunk (1 = ordered sweep sufficed).
    pub stage2_rounds: usize,
    /// Post-keyword re-propagation depth for this chunk.
    pub stage3_rounds: usize,
}

/// Classifies a whole log as one chunk: the batch entry point behind
/// [`crate::classify`]. It runs exactly the per-chunk pieces
/// [`IncrementalClassifier::append_chunk`] runs, without its cross-chunk
/// tables — chunk-local URL ids are the final ids, the memos start fresh,
/// and the Table-2 seen-bits are sized to the log's distinct values.
pub(crate) fn classify_log(
    requests: &[LoggedRequest],
    domains: &DomainTable,
    engine: &mut RuleEngine,
    stages: ClassifierStages,
) -> ClassificationResult {
    let mut sc = ChunkScratch::default();
    let mut hosts = HostTable::default();
    // The dedup table is a temporary: it is freed before the stages run.
    sc.intern(
        &mut UrlTable::default(),
        &mut hosts,
        engine,
        domains,
        requests,
    );
    let n_urls = sc.uid_first.len();
    sc.uid_verdict.reserve_exact(n_urls);
    for (&first, &h) in sc.uid_first.iter().zip(&sc.uid_host) {
        // Each distinct URL is visited once, so its gate memo starts fresh
        // and is never read again.
        let mut gate = MEMO_UNKNOWN;
        let r = &requests[first as usize];
        let hit = stage1_verdict(engine, hosts.rows[h as usize], domains, r, &mut gate);
        sc.uid_verdict.push(hit);
    }
    let mut labels = sc.project(requests);
    let mut args_memo = vec![MEMO_UNKNOWN; n_urls];
    let mut kw_memo = vec![MEMO_UNKNOWN; n_urls];
    let (stage2_rounds, stage3_rounds) = sc.propagate(
        requests,
        &mut labels,
        stages,
        &KeywordScanner::new(),
        &mut args_memo,
        &mut kw_memo,
    );
    let mut table2 = Table2::default();
    table2.absorb(&labels, &sc, &hosts.rows, n_urls, engine.n_tlds());
    ClassificationResult {
        labels,
        abp: table2.abp,
        semi: table2.semi,
        propagation_rounds: stage2_rounds + stage3_rounds,
        stage2_rounds,
        stage3_rounds,
    }
}

/// Chunk-local URL dedup table, specialized for one pass over a request
/// slice.
///
/// Two things make it faster than a general-purpose map here:
/// - slots are 12 bytes (tag, id, last occurrence), so the table for
///   ~47k unique URLs fits in ~768 KiB instead of ~1.4 MiB of key pointers;
/// - equality is verified against the *most recent* occurrence of the URL,
///   not the first. High-frequency URLs recur every few dozen requests, so
///   the comparison target is usually still in cache, where the first
///   occurrence of a hot URL is tens of megabytes of allocations away.
///
/// Lookups stay exact: a 32-bit hash tag only short-circuits the full byte
/// comparison, it never replaces it.
#[derive(Default)]
struct UrlTable {
    /// Slot array, length a power of two. One slot is 12 bytes so a probe
    /// costs at most one cache line.
    slots: Vec<LocalSlot>,
    mask: usize,
    /// Chunk-local id -> its [`url_hash`]: the incremental classifier's
    /// cross-chunk resolve pass reuses them, and a grow re-inserts from
    /// them without touching the URL strings.
    hashes: Vec<u64>,
}

/// `id1` is the chunk-local id plus one (0 = empty slot); `last` is the
/// index of the most recent request that carried this URL.
#[derive(Clone, Copy, Default)]
struct LocalSlot {
    tag: u32,
    id1: u32,
    last: u32,
}

enum UrlSlot {
    /// URL was seen before; its id.
    Existing(u32),
    /// First occurrence; the caller must push the per-unique side tables.
    New(u32),
}

impl UrlTable {
    /// Empties the table and sizes it for a chunk of `n` requests: one
    /// slot per request, rounded up to a power of two, which keeps the
    /// load factor under 3/4 for every realistic log without the grow
    /// path. A larger table left by an earlier chunk is kept and cleared
    /// (table size only shifts probe positions; ids are first-occurrence
    /// ranks either way).
    fn reset(&mut self, n: usize) {
        let want = n.max(16).next_power_of_two();
        if self.slots.len() < want {
            self.slots = vec![LocalSlot::default(); want];
        } else {
            self.slots.fill(LocalSlot::default());
        }
        self.mask = self.slots.len() - 1;
        self.hashes.clear();
    }

    /// Pulls the slot a hash maps to into cache ahead of its `intern` call.
    fn prefetch(&self, hash: u64) {
        std::hint::black_box(self.slots[hash as usize & self.mask].id1);
    }

    fn intern(&mut self, hash: u64, url: &str, i: u32, requests: &[LoggedRequest]) -> UrlSlot {
        if self.hashes.len() * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let tag = (hash >> 32) as u32;
        let mut s = hash as usize & self.mask;
        loop {
            let slot = self.slots[s];
            if slot.id1 == 0 {
                self.hashes.push(hash);
                let id = self.hashes.len() as u32;
                self.slots[s] = LocalSlot {
                    tag,
                    id1: id,
                    last: i,
                };
                return UrlSlot::New(id - 1);
            }
            if slot.tag == tag && &*requests[slot.last as usize].url == url {
                self.slots[s].last = i;
                return UrlSlot::Existing(slot.id1 - 1);
            }
            s = (s + 1) & self.mask;
        }
    }

    /// Doubles the table. Cold path: only reached if the chunk's
    /// unique-URL count exceeds 3/4 of its request count rounded up to a
    /// power of two.
    fn grow(&mut self) {
        let n = self.slots.len() * 2;
        let mut slots = vec![LocalSlot::default(); n];
        let mask = n - 1;
        for slot in &self.slots {
            if slot.id1 == 0 {
                continue;
            }
            let hash = self.hashes[(slot.id1 - 1) as usize];
            let mut d = hash as usize & mask;
            while slots[d].id1 != 0 {
                d = (d + 1) & mask;
            }
            slots[d] = *slot;
        }
        self.slots = slots;
        self.mask = mask;
    }
}

/// Chunk working memory: the dense per-request and per-chunk-distinct
/// views every stage runs over. The incremental classifier keeps one
/// across chunks (cleared, not reallocated — at streaming chunk sizes the
/// fixed cost of fresh buffers repeats hundreds of times over a stream).
#[derive(Default)]
struct ChunkScratch {
    /// Request -> chunk-local URL id. The incremental classifier rewrites
    /// it to stream-wide ids between [`ChunkScratch::project`] and
    /// [`ChunkScratch::propagate`]; in a batch run the two coincide.
    url_of: Vec<u32>,
    /// Chunk-local URL id -> the first request carrying it.
    uid_first: Vec<u32>,
    /// Chunk-local URL id -> dense host id (a URL embeds its host, so equal
    /// URLs share a host).
    uid_host: Vec<u32>,
    /// Chunk-local URL id -> stage-1 verdict (filled by the caller).
    uid_verdict: Vec<bool>,
    /// Chunk-local URL id -> stream-wide URL id (incremental only).
    gid_of: Vec<u32>,
    /// Request -> dense host id.
    host_of: Vec<u32>,
    /// Request -> referrer request index, or [`NO_REFERRER`]. Extracted so
    /// the propagation stages run over a dense array instead of
    /// re-streaming the (much larger) request structs.
    referrer_of: Vec<u32>,
}

impl ChunkScratch {
    /// Interns the chunk's URLs into chunk-local first-occurrence ranks
    /// through `table`, and each first-seen URL's host into `hosts`
    /// (resolving its engine row on first sight), filling `url_of`,
    /// `uid_first` and `uid_host`. Host ids are assigned in URL
    /// first-occurrence order, so they are the same for every chunking.
    ///
    /// The pass is software-pipelined around the log's two cache-hostile
    /// access patterns:
    ///  - each URL string is a fresh pointer chase the hardware prefetcher
    ///    cannot follow, so a byte of the string BYTES_AHEAD iterations out
    ///    is touched early to overlap the DRAM latency (`copied()` matters:
    ///    it forces the load, not just the address);
    ///  - the dedup table is a random probe per request, so the URL
    ///    HASH_AHEAD iterations out is hashed early (its bytes arrived via
    ///    the byte prefetch) and its slot pulled into cache, leaving the
    ///    probe at iteration `i` to hit warm lines.
    ///
    /// `ring` carries the HASH_AHEAD in-flight hashes; request `i` is
    /// interned with the hash computed HASH_AHEAD iterations ago, while its
    /// string bytes are still in L1.
    fn intern(
        &mut self,
        table: &mut UrlTable,
        hosts: &mut HostTable,
        engine: &mut RuleEngine,
        domains: &DomainTable,
        requests: &[LoggedRequest],
    ) {
        let n = requests.len();
        table.reset(n);
        for v in [
            &mut self.url_of,
            &mut self.uid_first,
            &mut self.uid_host,
            &mut self.gid_of,
            &mut self.host_of,
            &mut self.referrer_of,
        ] {
            v.clear();
        }
        self.uid_verdict.clear();
        self.url_of.reserve(n);
        const BYTES_AHEAD: usize = 16;
        const HASH_AHEAD: usize = 8;
        let mut ring = [0u64; HASH_AHEAD];
        for (j, slot) in ring.iter_mut().enumerate().take(n.min(HASH_AHEAD)) {
            *slot = url_hash(requests[j].url.as_bytes());
            table.prefetch(*slot);
        }
        for (i, r) in requests.iter().enumerate() {
            if let Some(ahead) = requests.get(i + BYTES_AHEAD) {
                let u = ahead.url.as_bytes();
                std::hint::black_box(u.first().copied());
                std::hint::black_box(u.last().copied());
            }
            let hash = if let Some(ahead) = requests.get(i + HASH_AHEAD) {
                let h = url_hash(ahead.url.as_bytes());
                table.prefetch(h);
                std::mem::replace(&mut ring[i % HASH_AHEAD], h)
            } else {
                ring[i % HASH_AHEAD]
            };
            let uid = match table.intern(hash, &r.url, i as u32, requests) {
                UrlSlot::New(uid) => {
                    self.uid_first.push(i as u32);
                    self.uid_host.push(hosts.intern(r.host, engine, domains));
                    uid
                }
                UrlSlot::Existing(uid) => {
                    debug_assert_eq!(
                        requests[self.uid_first[uid as usize] as usize].host, r.host,
                        "requests sharing a URL string must share its embedded host"
                    );
                    uid
                }
            };
            self.url_of.push(uid);
        }
    }

    /// Projects the per-request host and referrer views through the
    /// chunk-local ids and returns the stage-1 labels from `uid_verdict`.
    /// (Filling the views here rather than in [`ChunkScratch::intern`]
    /// keeps them out of memory while the dedup table is live.)
    fn project(&mut self, requests: &[LoggedRequest]) -> Vec<Classification> {
        let n = requests.len();
        self.host_of.reserve(n);
        self.referrer_of.reserve(n);
        let mut labels = vec![Classification::Clean; n];
        for (i, r) in requests.iter().enumerate() {
            let cu = self.url_of[i] as usize;
            self.host_of.push(self.uid_host[cu]);
            self.referrer_of.push(match r.referrer {
                Referrer::Request(parent) => parent.0,
                Referrer::FirstParty | Referrer::None => NO_REFERRER,
            });
            if self.uid_verdict[cu] {
                labels[i] = Classification::AbpTracking;
            }
        }
        labels
    }

    /// Stages 2 and 3 over the chunk, with the per-URL memos indexed by
    /// `url_of`. Returns `(stage2_rounds, stage3_rounds)`.
    fn propagate(
        &self,
        requests: &[LoggedRequest],
        labels: &mut [Classification],
        stages: ClassifierStages,
        scanner: &KeywordScanner,
        args_memo: &mut [u8],
        kw_memo: &mut [u8],
    ) -> (usize, usize) {
        let n = requests.len();
        let url_of = &self.url_of;
        let referrer_of = &self.referrer_of;
        let mut children: Option<ChildIndex> = None;
        // Stage 2: ordered forward sweep over the (backward-pointing)
        // referrer edges, with the worklist fallback for forward edges.
        let mut stage2_rounds = 0usize;
        if stages.referrer_propagation {
            stage2_rounds = 1;
            let mut forward_edges = false;
            for i in 0..n {
                let p = referrer_of[i] as usize;
                if p == NO_REFERRER as usize {
                    continue;
                }
                debug_assert!(
                    p < n,
                    "referrer index {p} out of range ({n} requests): referrers must be \
                     positions in the classified slice"
                );
                if p >= i {
                    forward_edges = true;
                    continue;
                }
                if labels[i].is_tracking() || !labels[p].is_tracking() {
                    continue;
                }
                if stages.require_args
                    && !memo_get(&mut args_memo[url_of[i] as usize], || {
                        requests[i].has_args()
                    })
                {
                    continue;
                }
                labels[i] = Classification::SemiTracking;
            }
            if forward_edges {
                let idx = children.get_or_insert_with(|| ChildIndex::build(referrer_of));
                let seeds: Vec<usize> = (0..n).filter(|&i| labels[i].is_tracking()).collect();
                stage2_rounds +=
                    propagate_worklist(requests, url_of, labels, stages, args_memo, idx, seeds);
            }
        }

        // Stage 3: argument + keyword matching on what's left, then re-
        // propagation from exactly the newly labeled requests.
        let mut stage3_rounds = 0usize;
        if stages.keywords {
            let mut newly: Vec<usize> = Vec::new();
            for i in 0..n {
                if labels[i].is_tracking() {
                    continue;
                }
                let u = url_of[i] as usize;
                if !memo_get(&mut args_memo[u], || requests[i].has_args())
                    || !memo_get(&mut kw_memo[u], || scanner.matches(&requests[i].url))
                {
                    continue;
                }
                labels[i] = Classification::SemiTracking;
                newly.push(i);
            }
            if stages.referrer_propagation && !newly.is_empty() {
                let idx = children.get_or_insert_with(|| ChildIndex::build(referrer_of));
                stage3_rounds =
                    propagate_worklist(requests, url_of, labels, stages, args_memo, idx, newly);
            }
        }

        (stage2_rounds, stage3_rounds)
    }
}

/// Stage-1 verdict for one distinct URL on a host with compiled `row`.
/// Only url-dependent rows pay the automaton scan, memoized in `gate`.
fn stage1_verdict(
    engine: &RuleEngine,
    row: HostRow,
    domains: &DomainTable,
    r: &LoggedRequest,
    gate: &mut u8,
) -> bool {
    if row.always() {
        true
    } else if row.never() {
        false
    } else {
        memo_get(gate, || {
            engine.url_verdict(row, domains.domain(r.host), &r.url)
        })
    }
}

/// Tri-state memo lookup: evaluates on first ask, then answers from `slot`.
fn memo_get(slot: &mut u8, eval: impl FnOnce() -> bool) -> bool {
    if *slot == MEMO_UNKNOWN {
        *slot = if eval() { MEMO_YES } else { MEMO_NO };
    }
    *slot == MEMO_YES
}

/// Referrer children adjacency in CSR form, built once on demand.
struct ChildIndex {
    starts: Vec<u32>,
    children: Vec<u32>,
}

impl ChildIndex {
    fn build(referrer_of: &[u32]) -> ChildIndex {
        let n = referrer_of.len();
        let mut counts = vec![0u32; n + 1];
        for &p in referrer_of {
            if p != NO_REFERRER {
                counts[p as usize + 1] += 1;
            }
        }
        for i in 1..=n {
            counts[i] += counts[i - 1];
        }
        let starts = counts.clone();
        let mut fill = counts;
        let mut children = vec![0u32; starts[n] as usize];
        for (i, &p) in referrer_of.iter().enumerate() {
            if p != NO_REFERRER {
                children[fill[p as usize] as usize] = i as u32;
                fill[p as usize] += 1;
            }
        }
        ChildIndex { starts, children }
    }

    fn children_of(&self, i: usize) -> &[u32] {
        &self.children[self.starts[i] as usize..self.starts[i + 1] as usize]
    }
}

/// BFS worklist propagation from `seeds` (already-tracking requests) to
/// true convergence. Returns the propagation depth (0 when nothing new was
/// labeled). Labels are monotone, so the result is independent of
/// processing order.
fn propagate_worklist(
    requests: &[LoggedRequest],
    url_of: &[u32],
    labels: &mut [Classification],
    stages: ClassifierStages,
    args_memo: &mut [u8],
    idx: &ChildIndex,
    seeds: Vec<usize>,
) -> usize {
    let mut queue: VecDeque<(usize, usize)> = seeds.into_iter().map(|i| (i, 0)).collect();
    let mut depth = 0usize;
    while let Some((i, d)) = queue.pop_front() {
        for &c in idx.children_of(i) {
            let c = c as usize;
            if labels[c].is_tracking() {
                continue;
            }
            if stages.require_args
                && !memo_get(&mut args_memo[url_of[c] as usize], || {
                    requests[c].has_args()
                })
            {
                continue;
            }
            labels[c] = Classification::SemiTracking;
            depth = depth.max(d + 1);
            queue.push_back((c, d + 1));
        }
    }
    depth
}

/// Dense host interner: world [`DomainId`] -> dense host id in
/// first-occurrence order, with each host's compiled engine row (gate
/// verdict + TLD id), resolved once per unique host.
#[derive(Default)]
struct HostTable {
    /// World `DomainId` -> dense host id (`u32::MAX` = unseen), lazily
    /// grown. Hosts arrive pre-interned from the study, so host interning
    /// is an array lookup.
    remap: Vec<u32>,
    /// Dense host id -> world `DomainId`.
    ids: Vec<DomainId>,
    /// Dense host id -> compiled engine row.
    rows: Vec<HostRow>,
}

impl HostTable {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn intern(&mut self, host_id: DomainId, engine: &mut RuleEngine, domains: &DomainTable) -> u32 {
        let hid = host_id.0 as usize;
        if hid >= self.remap.len() {
            self.remap.resize(hid + 1, u32::MAX);
        }
        if self.remap[hid] != u32::MAX {
            return self.remap[hid];
        }
        let h = self.ids.len() as u32;
        self.remap[hid] = h;
        self.ids.push(host_id);
        self.rows.push(engine.host_row(host_id, domains));
        h
    }
}

/// Table-2 state: seen-bits (bit 0 = ABP, bit 1 = semi) per dense host,
/// TLD and URL id, plus the running [`MethodCounts`] rows.
#[derive(Default)]
struct Table2 {
    host_seen: Vec<u8>,
    tld_seen: Vec<u8>,
    url_seen: Vec<u8>,
    abp: MethodCounts,
    semi: MethodCounts,
}

impl Table2 {
    /// Counts one classified chunk: distinctness is a seen-bit per dense id
    /// instead of hash-set inserts. The seen-bits first grow to the current
    /// distinct host (`rows`), URL and TLD counts; bits set by earlier
    /// chunks persist, so a host first counted in chunk 0 never counts
    /// again in chunk 3.
    fn absorb(
        &mut self,
        labels: &[Classification],
        sc: &ChunkScratch,
        rows: &[HostRow],
        n_urls: usize,
        n_tlds: usize,
    ) {
        self.host_seen.resize(rows.len(), 0);
        self.url_seen.resize(n_urls, 0);
        self.tld_seen.resize(n_tlds, 0);
        for (i, l) in labels.iter().enumerate() {
            let (slot, bit) = match l {
                Classification::AbpTracking => (&mut self.abp, 1u8),
                Classification::SemiTracking => (&mut self.semi, 2u8),
                Classification::Clean => continue,
            };
            slot.n_total_requests += 1;
            let h = sc.host_of[i] as usize;
            if self.host_seen[h] & bit == 0 {
                self.host_seen[h] |= bit;
                slot.n_fqdn += 1;
                // A TLD can only first appear alongside a new host (the
                // TLD is a function of the host), so the check nests here.
                let t = rows[h].tld() as usize;
                if self.tld_seen[t] & bit == 0 {
                    self.tld_seen[t] |= bit;
                    slot.n_tld += 1;
                }
            }
            let u = sc.url_of[i] as usize;
            if self.url_seen[u] & bit == 0 {
                self.url_seen[u] |= bit;
                slot.n_unique_urls += 1;
            }
        }
    }
}

/// Owned unique-URL store: one contiguous byte buffer plus per-id spans.
///
/// The chunk-local interner never copies a URL — it borrows equality
/// targets from the request slice. Across chunks the earlier slices are
/// gone, so the incremental classifier must own one copy per unique URL;
/// an arena makes that ownership an amortized byte append instead of a
/// per-string allocation, and keeps cold equality probes walking one
/// linear buffer.
#[derive(Default)]
struct UrlArena {
    bytes: Vec<u8>,
    spans: Vec<(usize, u32)>,
}

impl UrlArena {
    fn len(&self) -> usize {
        self.spans.len()
    }

    fn push(&mut self, url: &str) {
        self.spans.push((self.bytes.len(), url.len() as u32));
        self.bytes.extend_from_slice(url.as_bytes());
    }

    fn bytes_of(&self, id: usize) -> &[u8] {
        let (off, len) = self.spans[id];
        &self.bytes[off..off + len as usize]
    }

    fn str_of(&self, id: usize) -> &str {
        std::str::from_utf8(self.bytes_of(id)).expect("arena bytes come from pushed &str")
    }
}

/// Cross-chunk dedup table over the classifier's owned URL strings —
/// level two of the two-level intern (see `append_chunk`). Same load
/// factor and linear probing as [`UrlTable`], so ids are assigned in the
/// same first-occurrence order, but it is only ever probed once per
/// *chunk-distinct* URL (the chunk-local table absorbs all within-chunk
/// repeats), so its slots carry no occurrence index — 8 bytes, equality
/// always against the owned arena.
struct UrlSlots {
    slots: Vec<Slot>,
    mask: usize,
    len: u32,
    /// Interned id -> full 64-bit hash, dense. Kept so a table grow is a
    /// sequential re-insert of (hash, id) pairs instead of re-hashing
    /// every owned string through cold arena reads — on the streaming
    /// workload each of those rehashes cost multiple milliseconds (the
    /// arena is several MB by the time the table crosses a power of two).
    hashes: Vec<u64>,
}

/// `id1` is the interned id plus one (0 = empty slot).
#[derive(Clone, Copy, Default)]
struct Slot {
    tag: u32,
    id1: u32,
}

impl UrlSlots {
    fn with_capacity(n: usize) -> UrlSlots {
        let slots = n.max(16).next_power_of_two();
        UrlSlots {
            slots: vec![Slot::default(); slots],
            mask: slots - 1,
            len: 0,
            hashes: Vec::new(),
        }
    }

    /// Pulls the slot a hash maps to into cache ahead of its `intern` call.
    fn prefetch(&self, hash: u64) {
        std::hint::black_box(self.slots[hash as usize & self.mask].id1);
    }

    /// Chases a probed slot into the arena: if the hash's home slot holds
    /// a tag match, its string is about to be equality-compared — touching
    /// the span and first byte a few iterations early overlaps those two
    /// dependent DRAM loads with the resolve loop.
    fn prefetch_arena(&self, hash: u64, urls: &UrlArena) {
        let slot = self.slots[hash as usize & self.mask];
        if slot.id1 != 0 && slot.tag == (hash >> 32) as u32 {
            std::hint::black_box(urls.bytes_of((slot.id1 - 1) as usize).first().copied());
        }
    }

    /// Interns against the owned unique-string store (both the pass-2
    /// resolve loop and the `apply_delta` path, where no chunk slice
    /// exists).
    fn intern_owned(&mut self, hash: u64, url: &str, urls: &UrlArena) -> UrlSlot {
        if self.len as usize * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let tag = (hash >> 32) as u32;
        let mut s = hash as usize & self.mask;
        loop {
            let slot = self.slots[s];
            if slot.id1 == 0 {
                self.len += 1;
                self.slots[s] = Slot { tag, id1: self.len };
                self.hashes.push(hash);
                return UrlSlot::New(self.len - 1);
            }
            // Tag (high 32 bits) filters in the slot line itself; the full
            // 64-bit hash from the dense sidecar then rejects nearly every
            // residual false tag match without touching the (colder) arena
            // bytes. The byte equality stays authoritative.
            if slot.tag == tag
                && self.hashes[(slot.id1 - 1) as usize] == hash
                && urls.bytes_of((slot.id1 - 1) as usize) == url.as_bytes()
            {
                return UrlSlot::Existing(slot.id1 - 1);
            }
            s = (s + 1) & self.mask;
        }
    }

    /// Sizes the table for a cumulative request total, rehashing at most
    /// once — the sizing rule of [`UrlTable::reset`] (one slot per
    /// request, rounded up to a power of two), applied per chunk with the
    /// running total. A table left to the 3/4 load-factor doublings runs
    /// ~2x longer probe chains (measurably dragging the pipelined resolve
    /// pass), while oversizing it doubles the cache footprint every probe
    /// has to miss through. It also means a chunk never pays repeated
    /// doublings mid-pass.
    fn reserve_for_total(&mut self, total_requests: usize) {
        let target = total_requests.max(16).next_power_of_two();
        if target > self.slots.len() {
            self.grow_to(target);
        }
    }

    /// Doubles the table.
    fn grow(&mut self) {
        self.grow_to(self.slots.len() * 2);
    }

    /// Rebuilds the table at `n` slots from the dense id -> hash sidecar:
    /// one sequential walk, no arena reads. Linear-probe lookups only need
    /// every key reachable from its home slot without crossing an empty
    /// slot, and re-inserting every key into an empty table preserves that
    /// regardless of insertion order — slot layout is not part of the
    /// determinism contract (interned ids are, and they don't move).
    fn grow_to(&mut self, n: usize) {
        let mut slots = vec![Slot::default(); n];
        let mask = n - 1;
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut d = hash as usize & mask;
            while slots[d].id1 != 0 {
                d = (d + 1) & mask;
            }
            slots[d] = Slot {
                tag: (hash >> 32) as u32,
                id1: id as u32 + 1,
            };
        }
        self.slots = slots;
        self.mask = mask;
    }
}

/// Cross-chunk classifier state. See the module docs for what persists and
/// why feeding chunks in order is bit-identical to batch classification.
pub struct IncrementalClassifier {
    /// The compiled filter-list engine (DESIGN.md §5h) — automaton, anchor
    /// buckets, prefilter, and the dense per-host row cache, all owned, so
    /// nothing about the frozen lists is re-derived per chunk.
    engine: RuleEngine,
    stages: ClassifierStages,
    scanner: KeywordScanner,

    /// Owned unique-URL arena (see [`UrlArena`]) and its dedup table.
    urls: UrlArena,
    url_slots: UrlSlots,
    /// Unique-URL id -> unique-host id (a URL embeds its host, so equal
    /// URLs share a host; debug-asserted in `append_chunk`).
    host_of_url: Vec<u32>,
    /// Dense hosts and their engine rows; the world ids are also the
    /// serialized form (rows are re-resolved on decode).
    hosts: HostTable,

    /// Per-unique-URL memos, all pure functions of the URL string:
    /// argument presence, keyword verdict, and the stage-1 url-dependent
    /// gate verdict.
    args_memo: Vec<u8>,
    kw_memo: Vec<u8>,
    gate_memo: Vec<u8>,

    /// Persistent Table-2 seen-bits and running counts.
    table2: Table2,
    n_requests: u64,

    /// Serialization baseline: high-water marks plus byte snapshots of the
    /// mutable per-entry state as of the last `encode_delta`/`apply_delta`,
    /// so the next delta carries only entries created or mutated since. A
    /// fresh classifier's baseline is empty, making its first delta a full
    /// encoding.
    enc_urls: usize,
    enc_hosts: usize,
    enc_args: Vec<u8>,
    enc_kw: Vec<u8>,
    enc_gate: Vec<u8>,
    enc_url_seen: Vec<u8>,
    enc_host_seen: Vec<u8>,

    /// Reusable per-chunk working memory: the chunk-local dedup table and
    /// the views the stages run over (see [`ChunkScratch`]).
    chunk_urls: UrlTable,
    chunk_scratch: ChunkScratch,
}

impl IncrementalClassifier {
    /// A fresh classifier over the given filter lists and stage toggles.
    /// Compiles the lists into a [`RuleEngine`] once, here — the
    /// classifier owns the compiled form, so the lists themselves are not
    /// borrowed past construction.
    pub fn new(
        easylist: &FilterList,
        easyprivacy: &FilterList,
        stages: ClassifierStages,
    ) -> IncrementalClassifier {
        IncrementalClassifier {
            engine: RuleEngine::compile(&[easylist, easyprivacy]),
            stages,
            scanner: KeywordScanner::new(),
            urls: UrlArena::default(),
            url_slots: UrlSlots::with_capacity(1024),
            host_of_url: Vec::new(),
            hosts: HostTable::default(),
            args_memo: Vec::new(),
            kw_memo: Vec::new(),
            gate_memo: Vec::new(),
            table2: Table2::default(),
            n_requests: 0,
            enc_urls: 0,
            enc_hosts: 0,
            enc_args: Vec::new(),
            enc_kw: Vec::new(),
            enc_gate: Vec::new(),
            enc_url_seen: Vec::new(),
            enc_host_seen: Vec::new(),
            chunk_urls: UrlTable::default(),
            chunk_scratch: ChunkScratch::default(),
        }
    }

    /// Total requests absorbed so far.
    pub fn n_requests(&self) -> u64 {
        self.n_requests
    }

    /// The running Table-2 rows `(abp, semi)` over everything absorbed so
    /// far. Equals `classify` over the concatenated log.
    pub fn counts(&self) -> (MethodCounts, MethodCounts) {
        (self.table2.abp, self.table2.semi)
    }

    /// Classifies one appended chunk and absorbs its counts.
    ///
    /// Chunks must arrive in log order; `requests` must be a whole-user
    /// range (referrer indices are chunk-local positions).
    pub fn append_chunk(
        &mut self,
        requests: &[LoggedRequest],
        domains: &DomainTable,
    ) -> ChunkClassification {
        let n = requests.len();
        // Size the cross-chunk table for the worst case (every request
        // unique) before the resolve pass — the pipelined loop never
        // rehashes.
        self.url_slots
            .reserve_for_total(self.n_requests as usize + n);
        // Per-chunk working memory persists across chunks (reset, not
        // reallocated); taken out of `self` so the borrow checker lets the
        // passes below index `self`'s per-unique tables while filling it.
        let mut sc = std::mem::take(&mut self.chunk_scratch);

        // Two-level interning. Pass 1 dedups the chunk against itself (and
        // interns first-seen hosts). Chunk-local ids are first-occurrence
        // ranks, so walking them in order preserves the global
        // first-occurrence id assignment the determinism contract pins.
        sc.intern(
            &mut self.chunk_urls,
            &mut self.hosts,
            &mut self.engine,
            domains,
            requests,
        );

        // Pass 2 resolves each chunk-distinct URL to its cross-chunk id in
        // one tight pipelined loop: the big table's slot is prefetched
        // SLOT_AHEAD out, and the arena span it points at (the equality
        // target for a recurring URL) ARENA_AHEAD out, once the slot line
        // has had time to arrive — the two dependent DRAM chases that
        // otherwise stall every first-recurrence-this-chunk probe.
        const SLOT_AHEAD: usize = 8;
        const ARENA_AHEAD: usize = 4;
        let uid_hash = &self.chunk_urls.hashes;
        sc.gid_of.reserve(uid_hash.len());
        sc.uid_verdict.reserve(uid_hash.len());
        // Worst case every chunk-distinct URL is stream-new: reserving the
        // per-unique side tables once keeps the New arm's scattered pushes
        // from re-amortizing separate grows mid-loop.
        let worst_new = uid_hash.len();
        self.urls.spans.reserve(worst_new);
        self.host_of_url.reserve(worst_new);
        self.args_memo.reserve(worst_new);
        self.kw_memo.reserve(worst_new);
        self.gate_memo.reserve(worst_new);
        for (j, &h) in uid_hash
            .iter()
            .enumerate()
            .take(SLOT_AHEAD.min(uid_hash.len()))
        {
            self.url_slots.prefetch(h);
            if j < ARENA_AHEAD {
                self.url_slots.prefetch_arena(h, &self.urls);
            }
        }
        for (k, &hash) in uid_hash.iter().enumerate() {
            if let Some(&h) = uid_hash.get(k + SLOT_AHEAD) {
                self.url_slots.prefetch(h);
            }
            if let Some(&h) = uid_hash.get(k + ARENA_AHEAD) {
                self.url_slots.prefetch_arena(h, &self.urls);
            }
            let r = &requests[sc.uid_first[k] as usize];
            let h = sc.uid_host[k];
            let u = match self.url_slots.intern_owned(hash, &r.url, &self.urls) {
                UrlSlot::New(u) => {
                    self.urls.push(&r.url);
                    self.args_memo.push(MEMO_UNKNOWN);
                    self.kw_memo.push(MEMO_UNKNOWN);
                    self.gate_memo.push(MEMO_UNKNOWN);
                    self.host_of_url.push(h);
                    u
                }
                UrlSlot::Existing(u) => u,
            };
            debug_assert_eq!(
                self.host_of_url[u as usize], h,
                "requests sharing a URL string must share its embedded host"
            );
            // Stage 1, decided once per chunk-distinct URL here — where the
            // request string is already in cache.
            let row = self.hosts.rows[h as usize];
            let hit = stage1_verdict(
                &self.engine,
                row,
                domains,
                r,
                &mut self.gate_memo[u as usize],
            );
            sc.uid_verdict.push(hit);
            sc.gid_of.push(u);
        }

        let mut labels = sc.project(requests);
        // Stages 2 and 3 read and fill the persistent memos, which are
        // indexed by stream-wide id.
        for u in &mut sc.url_of {
            *u = sc.gid_of[*u as usize];
        }
        let (stage2_rounds, stage3_rounds) = sc.propagate(
            requests,
            &mut labels,
            self.stages,
            &self.scanner,
            &mut self.args_memo,
            &mut self.kw_memo,
        );
        self.table2.absorb(
            &labels,
            &sc,
            &self.hosts.rows,
            self.urls.len(),
            self.engine.n_tlds(),
        );
        self.n_requests += n as u64;
        self.chunk_scratch = sc;
        ChunkClassification {
            labels,
            stage2_rounds,
            stage3_rounds,
        }
    }

    /// Serializes everything that changed since the previous
    /// `encode_delta`/`apply_delta` (format: DESIGN.md §5g) and advances
    /// the baseline. New hosts come first so new URLs can reference them;
    /// the sparse update sections carry pre-baseline entries whose memos
    /// filled in or whose seen-bits gained bits when an old value recurred.
    /// Gates, TLD ids and the dedup table are derivable and not stored.
    /// On a fresh classifier this is a full encoding of the state.
    pub fn encode_delta(&mut self, w: &mut ByteWriter) {
        w.put_u64(self.n_requests);
        w.put_usize(self.enc_hosts);
        w.put_usize(self.enc_urls);
        w.put_usize(self.hosts.len() - self.enc_hosts);
        for h in self.enc_hosts..self.hosts.len() {
            w.put_u32(self.hosts.ids[h].0);
            w.put_u8(self.table2.host_seen[h]);
        }
        w.put_usize(self.urls.len() - self.enc_urls);
        for u in self.enc_urls..self.urls.len() {
            w.put_str(self.urls.str_of(u));
            w.put_u32(self.host_of_url[u]);
            w.put_u8(self.args_memo[u]);
            w.put_u8(self.kw_memo[u]);
            w.put_u8(self.gate_memo[u]);
            w.put_u8(self.table2.url_seen[u]);
        }
        let dirty_hosts: Vec<u32> = (0..self.enc_hosts)
            .filter(|&h| self.table2.host_seen[h] != self.enc_host_seen[h])
            .map(|h| h as u32)
            .collect();
        w.put_usize(dirty_hosts.len());
        for &h in &dirty_hosts {
            w.put_u32(h);
            w.put_u8(self.table2.host_seen[h as usize]);
        }
        let dirty_urls: Vec<u32> = (0..self.enc_urls)
            .filter(|&u| {
                self.args_memo[u] != self.enc_args[u]
                    || self.kw_memo[u] != self.enc_kw[u]
                    || self.gate_memo[u] != self.enc_gate[u]
                    || self.table2.url_seen[u] != self.enc_url_seen[u]
            })
            .map(|u| u as u32)
            .collect();
        w.put_usize(dirty_urls.len());
        for &u in &dirty_urls {
            let u = u as usize;
            w.put_u32(u as u32);
            w.put_u8(self.args_memo[u]);
            w.put_u8(self.kw_memo[u]);
            w.put_u8(self.gate_memo[u]);
            w.put_u8(self.table2.url_seen[u]);
        }
        for c in [&self.table2.abp, &self.table2.semi] {
            w.put_usize(c.n_fqdn);
            w.put_usize(c.n_tld);
            w.put_usize(c.n_unique_urls);
            w.put_usize(c.n_total_requests);
        }
        self.sync_baseline();
    }

    /// Applies one [`IncrementalClassifier::encode_delta`] chunk onto the
    /// current state and advances the baseline. Deltas must be applied in
    /// the order they were encoded, starting from a fresh classifier — the
    /// baseline counts in the delta pin this, so an out-of-order or
    /// skipped chunk is a typed error, not silent corruption.
    ///
    /// The filter lists, stage toggles and `domains` must be the ones the
    /// encoding run used — the streaming driver guarantees this by
    /// re-deriving all three from the seed before opening the store (and
    /// the store refuses foreign seeds via the config fingerprint).
    pub fn apply_delta(
        &mut self,
        r: &mut ByteReader<'_>,
        domains: &DomainTable,
    ) -> Result<(), DecodeError> {
        let bad = |detail: String| DecodeError { offset: 0, detail };
        let n_requests = r.u64()?;
        if n_requests < self.n_requests {
            return Err(bad(format!(
                "delta total {} below the {} requests already applied",
                n_requests, self.n_requests
            )));
        }
        let base_hosts = r.len_prefix()?;
        let base_urls = r.len_prefix()?;
        if base_hosts != self.hosts.len() || base_urls != self.urls.len() {
            return Err(bad(format!(
                "delta baseline ({base_hosts} hosts, {base_urls} urls) does not match \
                 state ({} hosts, {} urls): chunk deltas must be applied in order",
                self.hosts.len(),
                self.urls.len()
            )));
        }
        let n_new_hosts = r.len_prefix()?;
        // Pre-reserve the host-side tables from the delta header, and the
        // world-id remap to its final extent, so cross-segment replay
        // never pays doubling spikes mid-chunk (the same cold-growth
        // class `reserve_for_total` kills for the URL table below).
        self.hosts.ids.reserve(n_new_hosts);
        self.table2.host_seen.reserve(n_new_hosts);
        self.hosts.rows.reserve(n_new_hosts);
        if self.hosts.remap.len() < domains.len() {
            self.hosts.remap.resize(domains.len(), u32::MAX);
        }
        for _ in 0..n_new_hosts {
            let wid = r.u32()?;
            if wid as usize >= domains.len() {
                return Err(bad(format!(
                    "host id {wid} out of range ({} interned domains)",
                    domains.len()
                )));
            }
            let seen = r.u8()?;
            if seen > 3 {
                return Err(bad(format!("host seen-bits {seen} out of range")));
            }
            let before = self.hosts.len();
            self.hosts.intern(DomainId(wid), &mut self.engine, domains);
            if self.hosts.len() == before {
                return Err(bad(format!("duplicate host id {wid} in delta")));
            }
            self.table2.host_seen.push(seen);
        }
        let n_new_urls = r.len_prefix()?;
        if (base_urls + n_new_urls) as u64 > n_requests {
            return Err(bad(format!(
                "{} unique urls exceed {n_requests} total requests",
                base_urls + n_new_urls
            )));
        }
        // Size the open-addressing URL table for the post-chunk total
        // before interning (the batch interner's sizing rule; without
        // this, replaying a large run rehashes the full table mid-delta),
        // and every dense per-URL column alongside it.
        self.url_slots.reserve_for_total(n_requests as usize);
        self.urls.spans.reserve(n_new_urls);
        self.host_of_url.reserve(n_new_urls);
        self.args_memo.reserve(n_new_urls);
        self.kw_memo.reserve(n_new_urls);
        self.gate_memo.reserve(n_new_urls);
        self.table2.url_seen.reserve(n_new_urls);
        for _ in 0..n_new_urls {
            let url = r.str()?;
            match self
                .url_slots
                .intern_owned(url_hash(url.as_bytes()), url, &self.urls)
            {
                UrlSlot::New(u) => debug_assert_eq!(u as usize, self.urls.len()),
                UrlSlot::Existing(_) => {
                    return Err(bad(format!("duplicate url in delta: {url}")));
                }
            }
            self.urls.push(url);
            let h = r.u32()?;
            if h as usize >= self.hosts.len() {
                return Err(bad(format!(
                    "url host ref {h} out of range ({} hosts)",
                    self.hosts.len()
                )));
            }
            self.host_of_url.push(h);
            let memos = [r.u8()?, r.u8()?, r.u8()?];
            for m in memos {
                if m > MEMO_YES {
                    return Err(bad(format!("memo byte {m} out of range")));
                }
            }
            self.args_memo.push(memos[0]);
            self.kw_memo.push(memos[1]);
            self.gate_memo.push(memos[2]);
            let seen = r.u8()?;
            if seen > 3 {
                return Err(bad(format!("url seen-bits {seen} out of range")));
            }
            self.table2.url_seen.push(seen);
        }
        let n_host_updates = r.len_prefix()?;
        for _ in 0..n_host_updates {
            let h = r.u32()? as usize;
            if h >= base_hosts {
                return Err(bad(format!(
                    "host update {h} outside the {base_hosts}-host baseline"
                )));
            }
            let seen = r.u8()?;
            // Seen-bits are monotone: an update that drops a bit means the
            // delta does not belong to this state.
            if seen > 3 || seen & self.table2.host_seen[h] != self.table2.host_seen[h] {
                return Err(bad(format!(
                    "host {h} seen-bits update {seen} is not a superset of {}",
                    self.table2.host_seen[h]
                )));
            }
            self.table2.host_seen[h] = seen;
        }
        let n_url_updates = r.len_prefix()?;
        for _ in 0..n_url_updates {
            let u = r.u32()? as usize;
            if u >= base_urls {
                return Err(bad(format!(
                    "url update {u} outside the {base_urls}-url baseline"
                )));
            }
            let memos = [r.u8()?, r.u8()?, r.u8()?];
            for m in memos {
                if m > MEMO_YES {
                    return Err(bad(format!("memo byte {m} out of range")));
                }
            }
            self.args_memo[u] = memos[0];
            self.kw_memo[u] = memos[1];
            self.gate_memo[u] = memos[2];
            let seen = r.u8()?;
            if seen > 3 || seen & self.table2.url_seen[u] != self.table2.url_seen[u] {
                return Err(bad(format!(
                    "url {u} seen-bits update {seen} is not a superset of {}",
                    self.table2.url_seen[u]
                )));
            }
            self.table2.url_seen[u] = seen;
        }
        // TLD seen-bits are the union of their hosts' (a TLD bit is only
        // ever set alongside a host bit in the absorb pass), so they are
        // recomputed rather than stored.
        self.table2.tld_seen.clear();
        self.table2.tld_seen.resize(self.engine.n_tlds(), 0);
        for h in 0..self.hosts.len() {
            self.table2.tld_seen[self.hosts.rows[h].tld() as usize] |= self.table2.host_seen[h];
        }
        for c in [&mut self.table2.abp, &mut self.table2.semi] {
            c.n_fqdn = r.len_prefix()?;
            c.n_tld = r.len_prefix()?;
            c.n_unique_urls = r.len_prefix()?;
            c.n_total_requests = r.len_prefix()?;
        }
        self.n_requests = n_requests;
        self.sync_baseline();
        Ok(())
    }

    /// Advances the serialization baseline to the current state.
    fn sync_baseline(&mut self) {
        self.enc_urls = self.urls.len();
        self.enc_hosts = self.hosts.len();
        self.enc_args.clone_from(&self.args_memo);
        self.enc_kw.clone_from(&self.kw_memo);
        self.enc_gate.clone_from(&self.gate_memo);
        self.enc_url_seen.clone_from(&self.table2.url_seen);
        self.enc_host_seen.clone_from(&self.table2.host_seen);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::{classify, classify_with_stages_threads};
    use crate::listgen::generate_lists;
    use rand::{rngs::StdRng, SeedableRng};
    use xborder_browser::{run_study_degraded, StudyConfig};
    use xborder_dns::{DnsSim, MappingPolicy, ZoneEntry, ZoneServer};
    use xborder_faults::{DegradationReport, FaultInjector};
    use xborder_geo::{CountryCode, WORLD};
    use xborder_netsim::ServerId;
    use xborder_webgraph::{generate, Domain, WebGraph, WebGraphConfig};

    fn dataset(seed: u64) -> (WebGraph, Vec<LoggedRequest>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = generate(&WebGraphConfig::small(), &mut rng);
        let mut dns = DnsSim::new();
        let de = WORLD.country_or_panic(CountryCode::parse("DE").unwrap());
        let mut next = 0u32;
        for s in &graph.services {
            for h in &s.hosts {
                next += 1;
                dns.add_zone(ZoneEntry {
                    host: h.clone(),
                    servers: vec![ZoneServer {
                        server: ServerId(next),
                        ip: std::net::IpAddr::V4(std::net::Ipv4Addr::from(0x0300_0000u32 + next)),
                        country: de.code,
                        location: de.centroid(),
                        valid: None,
                    }],
                    policy: MappingPolicy::Pinned,
                    ttl_secs: 300,
                })
                .unwrap();
            }
        }
        let ds = run_study_degraded(
            &StudyConfig::small(),
            &graph,
            &mut dns,
            &mut rng,
            &FaultInjector::inactive(),
            &mut DegradationReport::default(),
        );
        (graph, ds.requests)
    }

    /// User-boundary chunk splits (referrer chains never cross users, so
    /// any split at a user boundary is a legal chunking).
    fn user_chunks(requests: &[LoggedRequest], users_per_chunk: usize) -> Vec<&[LoggedRequest]> {
        let mut chunks = Vec::new();
        let mut start = 0usize;
        while start < requests.len() {
            let first_user = requests[start].user.0 as usize;
            let mut end = start;
            while end < requests.len()
                && (requests[end].user.0 as usize) < first_user + users_per_chunk
            {
                end += 1;
            }
            chunks.push(&requests[start..end]);
            start = end;
        }
        chunks
    }

    /// Rebase chunk-global referrers to chunk-local positions, as the
    /// streaming study emits them.
    fn rebased(chunk: &[LoggedRequest], offset: usize) -> Vec<LoggedRequest> {
        chunk
            .iter()
            .map(|r| {
                let mut r = r.clone();
                if let Referrer::Request(p) = r.referrer {
                    r.referrer = Referrer::Request(xborder_browser::RequestId(p.0 - offset as u32));
                }
                r
            })
            .collect()
    }

    fn run_incremental(
        requests: &[LoggedRequest],
        graph: &WebGraph,
        users_per_chunk: usize,
    ) -> (
        Vec<Classification>,
        MethodCounts,
        MethodCounts,
        IncrementalClassifier,
    ) {
        let (el, ep) = generate_lists(graph);
        let mut cls = IncrementalClassifier::new(&el, &ep, ClassifierStages::default());
        let mut labels = Vec::new();
        let mut offset = 0usize;
        for chunk in user_chunks(requests, users_per_chunk) {
            let local = rebased(chunk, offset);
            let out = cls.append_chunk(&local, graph.domains());
            labels.extend(out.labels);
            offset += chunk.len();
        }
        let (abp, semi) = cls.counts();
        (labels, abp, semi, cls)
    }

    #[test]
    fn incremental_matches_batch_across_chunkings() {
        let (graph, requests) = dataset(21);
        let (el, ep) = generate_lists(&graph);
        let batch = classify(&requests, graph.domains(), &el, &ep);
        for users_per_chunk in [1, 3, 1000] {
            let (labels, abp, semi, cls) = run_incremental(&requests, &graph, users_per_chunk);
            assert_eq!(
                labels, batch.labels,
                "labels differ at chunk={users_per_chunk}"
            );
            assert_eq!(
                abp, batch.abp,
                "abp counts differ at chunk={users_per_chunk}"
            );
            assert_eq!(
                semi, batch.semi,
                "semi counts differ at chunk={users_per_chunk}"
            );
            assert_eq!(cls.n_requests(), requests.len() as u64);
        }
    }

    #[test]
    fn incremental_matches_per_chunk_batch_rounds() {
        // Per-chunk labels and rounds must equal running the batch
        // classifier on the chunk alone — the contract the streaming
        // driver's rounds reassembly depends on.
        let (graph, requests) = dataset(22);
        let (el, ep) = generate_lists(&graph);
        let mut cls = IncrementalClassifier::new(&el, &ep, ClassifierStages::default());
        let mut offset = 0usize;
        for chunk in user_chunks(&requests, 4) {
            let local = rebased(chunk, offset);
            let inc = cls.append_chunk(&local, graph.domains());
            let batch = classify_with_stages_threads(
                &local,
                graph.domains(),
                &el,
                &ep,
                ClassifierStages::default(),
                1,
            );
            assert_eq!(inc.labels, batch.labels);
            assert_eq!(inc.stage2_rounds, batch.stage2_rounds);
            assert_eq!(inc.stage3_rounds, batch.stage3_rounds);
            offset += chunk.len();
        }
    }

    #[test]
    fn state_roundtrip_mid_stream_continues_identically() {
        let (graph, requests) = dataset(23);
        let (el, ep) = generate_lists(&graph);
        let chunks = user_chunks(&requests, 3);
        let split = chunks.len() / 2;

        // Encode one delta per chunk (exactly what the streaming driver
        // persists) and replay them in order onto a fresh classifier.
        let mut live = IncrementalClassifier::new(&el, &ep, ClassifierStages::default());
        let mut deltas: Vec<Vec<u8>> = Vec::new();
        let mut offset = 0usize;
        for chunk in &chunks[..split] {
            let local = rebased(chunk, offset);
            live.append_chunk(&local, graph.domains());
            let mut w = ByteWriter::new();
            live.encode_delta(&mut w);
            deltas.push(w.into_bytes());
            offset += chunk.len();
        }

        let mut resumed = IncrementalClassifier::new(&el, &ep, ClassifierStages::default());
        for bytes in &deltas {
            let mut r = ByteReader::new(bytes);
            resumed
                .apply_delta(&mut r, graph.domains())
                .expect("delta applies");
            r.finish().expect("no trailing bytes");
        }

        for chunk in &chunks[split..] {
            let local = rebased(chunk, offset);
            let a = live.append_chunk(&local, graph.domains());
            let b = resumed.append_chunk(&local, graph.domains());
            assert_eq!(a.labels, b.labels);
            assert_eq!(a.stage2_rounds, b.stage2_rounds);
            assert_eq!(a.stage3_rounds, b.stage3_rounds);
            offset += chunk.len();
        }
        assert_eq!(live.counts(), resumed.counts());
        let batch = classify(&requests, graph.domains(), &el, &ep);
        assert_eq!(resumed.counts(), (batch.abp, batch.semi));
    }

    #[test]
    fn truncated_state_is_typed_error() {
        let (graph, requests) = dataset(24);
        let (el, ep) = generate_lists(&graph);
        let mut cls = IncrementalClassifier::new(&el, &ep, ClassifierStages::default());
        cls.append_chunk(&requests, graph.domains());
        let mut w = ByteWriter::new();
        cls.encode_delta(&mut w);
        let bytes = w.into_bytes();
        for cut in [0, 1, 9, bytes.len() / 2, bytes.len() - 1] {
            let mut r = ByteReader::new(&bytes[..cut]);
            let mut fresh = IncrementalClassifier::new(&el, &ep, ClassifierStages::default());
            assert!(
                fresh.apply_delta(&mut r, graph.domains()).is_err(),
                "truncation at {cut} must not apply"
            );
        }
    }

    #[test]
    fn out_of_order_delta_is_typed_error() {
        // Applying chunk 1's delta without chunk 0's (or the same delta
        // twice when it interned anything) must fail the baseline pin.
        let (graph, requests) = dataset(25);
        let (el, ep) = generate_lists(&graph);
        let chunks = user_chunks(&requests, 2);
        assert!(chunks.len() >= 2, "dataset must span multiple chunks");
        let mut live = IncrementalClassifier::new(&el, &ep, ClassifierStages::default());
        let mut deltas: Vec<Vec<u8>> = Vec::new();
        let mut offset = 0usize;
        for chunk in &chunks[..2] {
            let local = rebased(chunk, offset);
            live.append_chunk(&local, graph.domains());
            let mut w = ByteWriter::new();
            live.encode_delta(&mut w);
            deltas.push(w.into_bytes());
            offset += chunk.len();
        }
        let mut fresh = IncrementalClassifier::new(&el, &ep, ClassifierStages::default());
        let mut r = ByteReader::new(&deltas[1]);
        let err = fresh
            .apply_delta(&mut r, graph.domains())
            .expect_err("skipping chunk 0's delta must not apply");
        assert!(err.detail.contains("baseline"), "unexpected error: {err}");
        // The failed apply interned nothing, so chunk 0's delta still fits.
        let mut r = ByteReader::new(&deltas[0]);
        fresh
            .apply_delta(&mut r, graph.domains())
            .expect("chunk 0's delta applies after the rejected skip");
        let mut r = ByteReader::new(&deltas[0]);
        fresh
            .apply_delta(&mut r, graph.domains())
            .expect_err("re-applying a state-growing delta must fail");
    }

    /// What the reference classifier reports for one slice.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        labels: Vec<Classification>,
        abp: MethodCounts,
        semi: MethodCounts,
        stage2_rounds: usize,
        stage3_rounds: usize,
    }

    /// Naive reference classifier sharing no code with the stages: stage 1
    /// asks every textual [`crate::rules::FilterRule::matches`] of both
    /// lists, propagation is plain level-by-level BFS, and distinct counts
    /// are string sets.
    ///
    /// The rounds follow the production contract: stage 2 is one ordered
    /// sweep — which labels exactly what backward-pointing edges reach from
    /// the stage-1 seeds — plus, if any referrer points forward, the BFS
    /// depth from everything tracking after the sweep; stage 3 is the BFS
    /// depth from the keyword-labeled requests.
    fn reference(
        requests: &[LoggedRequest],
        domains: &DomainTable,
        lists: [&FilterList; 2],
        stages: ClassifierStages,
    ) -> Outcome {
        use std::collections::HashSet;
        use xborder_webgraph::url::TRACKING_KEYWORDS;
        let n = requests.len();
        let parent = |i: usize| match requests[i].referrer {
            Referrer::Request(p) => Some(p.0 as usize),
            Referrer::FirstParty | Referrer::None => None,
        };
        let joins = |i: usize| !stages.require_args || requests[i].has_args();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 0..n {
            if let Some(p) = parent(i) {
                children[p].push(i);
            }
        }
        // Labels every unlabeled, joining child reachable from `seeds`
        // over edges `follow` accepts; returns the number of BFS levels
        // that labeled something.
        let bfs = |labels: &mut Vec<Classification>,
                   seeds: Vec<usize>,
                   follow: &dyn Fn(usize, usize) -> bool|
         -> usize {
            let mut level = seeds;
            let mut depth = 0;
            loop {
                let mut next = Vec::new();
                for &p in &level {
                    for &c in &children[p] {
                        if follow(p, c) && !labels[c].is_tracking() && joins(c) {
                            labels[c] = Classification::SemiTracking;
                            next.push(c);
                        }
                    }
                }
                if next.is_empty() {
                    return depth;
                }
                depth += 1;
                level = next;
            }
        };
        let tracking = |labels: &[Classification]| -> Vec<usize> {
            (0..n).filter(|&i| labels[i].is_tracking()).collect()
        };

        let mut labels: Vec<Classification> = requests
            .iter()
            .map(|r| {
                let host = domains.domain(r.host);
                let hit = lists
                    .iter()
                    .any(|l| l.rules().iter().any(|rule| rule.matches(host, &r.url)));
                if hit {
                    Classification::AbpTracking
                } else {
                    Classification::Clean
                }
            })
            .collect();

        let mut stage2_rounds = 0;
        if stages.referrer_propagation {
            stage2_rounds = 1;
            let seeds = tracking(&labels);
            bfs(&mut labels, seeds, &|p, c| p < c);
            if (0..n).any(|i| parent(i).is_some_and(|p| p >= i)) {
                let seeds = tracking(&labels);
                stage2_rounds += bfs(&mut labels, seeds, &|_, _| true);
            }
        }

        let mut stage3_rounds = 0;
        if stages.keywords {
            let newly: Vec<usize> = (0..n)
                .filter(|&i| {
                    let url = requests[i].url.to_ascii_lowercase();
                    !labels[i].is_tracking()
                        && requests[i].has_args()
                        && TRACKING_KEYWORDS.iter().any(|k| url.contains(k))
                })
                .collect();
            for &i in &newly {
                labels[i] = Classification::SemiTracking;
            }
            if stages.referrer_propagation && !newly.is_empty() {
                stage3_rounds = bfs(&mut labels, newly, &|_, _| true);
            }
        }

        let count = |class: Classification| {
            let (mut fqdns, mut tlds, mut urls) = (HashSet::new(), HashSet::new(), HashSet::new());
            let mut total = 0;
            for (r, _) in requests.iter().zip(&labels).filter(|(_, &l)| l == class) {
                let host = domains.domain(r.host);
                fqdns.insert(host.as_str().to_string());
                tlds.insert(host.tld().as_str().to_string());
                urls.insert(r.url.to_string());
                total += 1;
            }
            MethodCounts {
                n_fqdn: fqdns.len(),
                n_tld: tlds.len(),
                n_unique_urls: urls.len(),
                n_total_requests: total,
            }
        };
        Outcome {
            abp: count(Classification::AbpTracking),
            semi: count(Classification::SemiTracking),
            labels,
            stage2_rounds,
            stage3_rounds,
        }
    }

    /// The log with every other user's requests in reverse order, referrers
    /// remapped: those users' referrer edges all point forward, so the
    /// worklist fallback runs next to the ordered sweep.
    fn with_forward_referrers(requests: &[LoggedRequest]) -> Vec<LoggedRequest> {
        let mut out = Vec::with_capacity(requests.len());
        let mut start = 0usize;
        while start < requests.len() {
            let user = requests[start].user;
            let end = start
                + requests[start..]
                    .iter()
                    .take_while(|r| r.user == user)
                    .count();
            if user.0 % 2 == 0 {
                out.extend_from_slice(&requests[start..end]);
            } else {
                let flip = |j: usize| start + end - 1 - j;
                out.extend(requests[start..end].iter().rev().map(|r| {
                    let mut r = r.clone();
                    if let Referrer::Request(p) = r.referrer {
                        r.referrer = Referrer::Request(xborder_browser::RequestId(
                            flip(p.0 as usize) as u32,
                        ));
                    }
                    r
                }));
            }
            start = end;
        }
        out
    }

    /// Batch and incremental routes against the naive reference, on a log
    /// in study order and one with forward-pointing referrers, under the
    /// default stages and without the argument requirement, with URL-
    /// dependent rules in the lists so the stage-1 automaton path runs.
    #[test]
    fn both_routes_match_the_reference_classifier() {
        use crate::rules::FilterRule;
        let (graph, requests) = dataset(26);
        let domains = graph.domains();
        let (mut el, mut ep) = generate_lists(&graph);
        let probe = &requests[requests.len() / 2];
        let host = domains.domain(probe.host);
        let path = &probe.url[probe.url.find(host.as_str()).unwrap() + host.as_str().len()..];
        el.push(FilterRule::DomainWithPath {
            domain: host.clone(),
            path_prefix: path[..path.len().min(3)].to_string(),
        });
        let tail = &requests[requests.len() / 3].url;
        ep.push(FilterRule::UrlSubstring(tail[tail.len() - 6..].to_string()));

        let forward = with_forward_referrers(&requests);
        assert!(forward
            .iter()
            .enumerate()
            .any(|(i, r)| matches!(r.referrer, Referrer::Request(p) if p.0 as usize > i)));
        let no_args = ClassifierStages {
            require_args: false,
            ..ClassifierStages::default()
        };
        for log in [&requests, &forward] {
            for stages in [ClassifierStages::default(), no_args] {
                let whole = reference(log, domains, [&el, &ep], stages);
                for users_per_chunk in [None, Some(1), Some(5), Some(37)] {
                    let chunks = match users_per_chunk {
                        None => vec![&log[..]],
                        Some(k) => user_chunks(log, k),
                    };
                    let mut cls = IncrementalClassifier::new(&el, &ep, stages);
                    let mut labels = Vec::new();
                    let mut offset = 0usize;
                    for chunk in chunks {
                        let local = rebased(chunk, offset);
                        let want = reference(&local, domains, [&el, &ep], stages);
                        let batch = crate::classify_with_stages_threads(
                            &local, domains, &el, &ep, stages, 1,
                        );
                        let got = Outcome {
                            labels: batch.labels,
                            abp: batch.abp,
                            semi: batch.semi,
                            stage2_rounds: batch.stage2_rounds,
                            stage3_rounds: batch.stage3_rounds,
                        };
                        assert_eq!(
                            got, want,
                            "batch route, chunk={users_per_chunk:?} at {offset}"
                        );
                        let inc = cls.append_chunk(&local, domains);
                        assert_eq!(inc.labels, want.labels, "incremental labels at {offset}");
                        assert_eq!(inc.stage2_rounds, want.stage2_rounds);
                        assert_eq!(inc.stage3_rounds, want.stage3_rounds);
                        labels.extend(inc.labels);
                        offset += chunk.len();
                    }
                    assert_eq!(labels, whole.labels, "chunk={users_per_chunk:?}");
                    assert_eq!(
                        cls.counts(),
                        (whole.abp, whole.semi),
                        "chunk={users_per_chunk:?}"
                    );
                }
            }
        }
    }

    /// A deep forward-pointing chain inside one chunk still exercises the
    /// worklist fallback (same guarantee the batch classifier pins).
    #[test]
    fn forward_chain_within_chunk_fully_labeled() {
        use xborder_browser::{RequestId, UserId};
        use xborder_netsim::time::SimTime;
        use xborder_webgraph::PublisherId;
        const LEN: usize = 40;
        let mut domains = DomainTable::new();
        let mk = |i: usize, referrer: Referrer, domains: &mut DomainTable| {
            let host = Domain::new(format!("h{i}.example.com"));
            LoggedRequest {
                user: UserId(0),
                time: SimTime(i as u64),
                first_party: domains.intern(&Domain::new("pub.example.org")),
                publisher: PublisherId(0),
                url: format!("https://{host}/p?x={i}").into_boxed_str(),
                host: domains.intern(&host),
                referrer,
                ip: "10.0.0.1".parse().unwrap(),
            }
        };
        let mut requests: Vec<LoggedRequest> = (0..LEN - 1)
            .map(|i| mk(i, Referrer::Request(RequestId(i as u32 + 1)), &mut domains))
            .collect();
        requests.push(mk(LEN - 1, Referrer::FirstParty, &mut domains));
        let mut el = FilterList::new("easylist");
        el.push(crate::rules::FilterRule::DomainAnchor(Domain::new(
            format!("h{}.example.com", LEN - 1),
        )));
        let ep = FilterList::new("easyprivacy");
        let mut cls = IncrementalClassifier::new(&el, &ep, ClassifierStages::default());
        let out = cls.append_chunk(&requests, &domains);
        assert!(out.labels.iter().all(|l| l.is_tracking()));
        assert!(out.stage2_rounds > 16);
    }
}
