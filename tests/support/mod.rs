//! Checkpoint tampering shared by the resume tests: rewrites a durable
//! chunk so that its frame, checksum and manifest entry are all valid and
//! only its contents are wrong.

use std::fs;
use std::path::Path;
use xborder_browser::{SegmentBlock, LABEL_CLEAN};
use xborder_checkpoint::{
    decode_frame, encode_frame, ByteReader, ByteWriter, Manifest, KIND_CHUNK,
};
use xborder_faults::stable_hash;

/// Gives the first clean request of chunk `file` in `dir` the label tag
/// `tag`, then re-frames the chunk and updates its manifest entry, so the
/// only defect left is the tag itself.
pub fn retag_first_clean_label(dir: &Path, file: &str, tag: u8) {
    let path = dir.join(file);
    let framed = fs::read(&path).expect("chunk blob readable");
    let payload = decode_frame(&path, &framed, KIND_CHUNK).expect("pristine chunk frame");
    let mut rd = ByteReader::new(payload);
    let (seg, cls) = (rd.blob().unwrap(), rd.blob().unwrap());
    let block = SegmentBlock::decode_bytes(seg).expect("pristine segment block");
    let (chunk, mut labels, stage2, stage3) = block.to_chunk();
    let row = labels
        .iter()
        .position(|&l| l == LABEL_CLEAN)
        .expect("the chunk has a clean request");
    labels[row] = tag;
    let retagged = SegmentBlock::from_chunk(
        &chunk,
        &labels,
        stage2,
        stage3,
        (block.user_start, block.user_end),
    );
    let mut w = ByteWriter::new();
    w.put_blob(&retagged.encode_bytes());
    w.put_blob(cls);
    let framed = encode_frame(KIND_CHUNK, &w.into_bytes());
    fs::write(&path, &framed).unwrap();

    let manifest_path = dir.join("manifest.json");
    let mut manifest: Manifest =
        serde_json::from_str(&fs::read_to_string(&manifest_path).unwrap()).unwrap();
    let entry = manifest
        .chunks
        .iter_mut()
        .find(|c| c.file == file)
        .expect("the chunk is in the manifest");
    entry.bytes = framed.len() as u64;
    entry.checksum = stable_hash(&framed);
    fs::write(
        &manifest_path,
        serde_json::to_string_pretty(&manifest).unwrap(),
    )
    .unwrap();
}
