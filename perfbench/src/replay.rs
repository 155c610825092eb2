//! Replays of what a traced run captured, through the program's public
//! layer functions: the wire codec, `NodeStore::apply_chunk`, a
//! `WalWriter`, and `VersionChain::snapshot_cells`. Each replay times its
//! layer and checks the result against an independent expectation.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

use wtpg_core::partition::{Catalog, PartitionId};
use wtpg_core::txn::AccessMode;
use wtpg_dur::wal::read_log;
use wtpg_dur::{ChunkRecord, Durability, WalWriter};
use wtpg_mvcc::VersionChain;
use wtpg_net::codec::{decode_frame, encode_frame};
use wtpg_net::Msg;
use wtpg_rt::store::NodeStore;

/// Per-layer figures from the replays.
#[derive(Clone, Debug, Default)]
pub struct ReplayStats {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub apply_ns_per_unit: f64,
    pub wal_append_us: f64,
    pub wal_flush_us: f64,
    pub snapshot_cells_us: f64,
}

/// One bulk-step order, deduplicated by `(txn, step)`.
struct Order {
    txn: u64,
    step: u32,
    partition: PartitionId,
    mode: AccessMode,
    units: u64,
}

fn orders(accesses: &[Msg]) -> Vec<Order> {
    let mut seen = BTreeSet::new();
    accesses
        .iter()
        .filter_map(|m| match *m {
            Msg::Access {
                txn,
                step,
                partition,
                mode,
                units,
                ..
            } if seen.insert((txn, step)) => Some(Order {
                txn: txn.0,
                step,
                partition,
                mode,
                units,
            }),
            _ => None,
        })
        .collect()
}

/// Write units per partition carried by the deduplicated `Access` orders.
pub fn ordered_write_units(accesses: &[Msg]) -> BTreeMap<u32, u64> {
    let mut out = BTreeMap::new();
    for o in orders(accesses) {
        if o.mode == AccessMode::Write {
            *out.entry(o.partition.0).or_insert(0) += o.units;
        }
    }
    out
}

/// Chunks `[start, len)` of a step of `units`, `chunk` cells at a time.
fn chunks(units: u64, chunk: u64) -> impl Iterator<Item = (u64, u64, u64)> {
    let chunk = chunk.max(1);
    (0..units.div_ceil(chunk)).map(move |i| (i, i * chunk, chunk.min(units - i * chunk)))
}

/// Runs every replay. `expected` is the per-partition write-unit table the
/// benchmark computed from its own specs; `wal_path` is a scratch file.
pub fn replay(
    catalog: &Catalog,
    accesses: &[Msg],
    captured: &[Msg],
    chunk_units: u64,
    expected: &BTreeMap<u32, u64>,
    wal_path: &Path,
    errors: &mut Vec<String>,
) -> ReplayStats {
    let mut st = ReplayStats::default();
    let orders = orders(accesses);

    // Codec: every captured message must round-trip exactly.
    if !captured.is_empty() {
        let t0 = Instant::now();
        let frames: Vec<Vec<u8>> = captured.iter().map(encode_frame).collect();
        st.encode_ns = t0.elapsed().as_nanos() as f64 / captured.len() as f64;
        let t0 = Instant::now();
        let decoded: Vec<_> = frames.iter().map(|f| decode_frame(f)).collect();
        st.decode_ns = t0.elapsed().as_nanos() as f64 / captured.len() as f64;
        for ((m, d), f) in captured.iter().zip(&decoded).zip(&frames) {
            match d {
                Ok((back, used)) if back == m && *used == f.len() => {}
                _ => {
                    errors.push(format!("codec: {m:?} does not round-trip"));
                    break;
                }
            }
        }
    }

    // Store: the orders applied chunk by chunk to fresh node stores must
    // leave each partition's cells summing to its declared write units.
    let mut stores: Vec<NodeStore> = (0..catalog.num_nodes())
        .map(|n| NodeStore::for_node(catalog, n))
        .collect();
    let mut units_total = 0u64;
    let t0 = Instant::now();
    for o in &orders {
        let store = &mut stores[catalog.node_of(o.partition) as usize];
        for (_, start, len) in chunks(o.units, chunk_units) {
            if let Err(e) = store.apply_chunk(o.partition, o.mode, start, len) {
                errors.push(format!("store replay: {e}"));
                return st;
            }
        }
        units_total += o.units;
    }
    st.apply_ns_per_unit = t0.elapsed().as_nanos() as f64 / units_total.max(1) as f64;
    let cells = |p: PartitionId| {
        stores[catalog.node_of(p) as usize]
            .cells(p)
            .map(|c| c.to_vec())
            .unwrap_or_default()
    };
    for p in catalog.partitions() {
        let sum: u64 = cells(p).iter().sum();
        let want = expected.get(&p.0).copied().unwrap_or(0);
        if sum != want {
            errors.push(format!(
                "store replay: partition {} holds {sum} units, specs declare {want}",
                p.0
            ));
        }
    }

    // WAL: a buffered writer fed the chunk stream, flushed once per order
    // (a data node's reply-batch cadence); the log must read back whole.
    let _ = std::fs::remove_file(wal_path);
    match WalWriter::open(wal_path, Durability::Buffered, 0, BTreeMap::new()) {
        Ok(mut w) => {
            let (mut append_ns, mut appends, mut flush_ns) = (0u128, 0u64, 0u128);
            for o in &orders {
                for (chunk, start, len) in chunks(o.units, chunk_units) {
                    let rec = ChunkRecord {
                        lsn: 0,
                        prev_lsn: 0,
                        txn: wtpg_core::txn::TxnId(o.txn),
                        step: o.step,
                        chunk,
                        partition: o.partition,
                        mode: o.mode,
                        start_unit: start,
                        units: len,
                        checksum: 0,
                        complete: start + len >= o.units,
                    };
                    let t0 = Instant::now();
                    let r = w.append(rec);
                    append_ns += t0.elapsed().as_nanos();
                    appends += 1;
                    if let Err(e) = r {
                        errors.push(format!("wal replay: {e}"));
                        return st;
                    }
                }
                let t0 = Instant::now();
                let r = w.flush();
                flush_ns += t0.elapsed().as_nanos();
                if let Err(e) = r {
                    errors.push(format!("wal replay: {e}"));
                    return st;
                }
            }
            st.wal_append_us = append_ns as f64 / 1e3 / appends.max(1) as f64;
            st.wal_flush_us = flush_ns as f64 / 1e3 / orders.len().max(1) as f64;
            drop(w);
            match read_log(wal_path) {
                Ok(log) if log.records.len() as u64 == appends && log.torn_tail.is_none() => {}
                Ok(log) => errors.push(format!(
                    "wal replay: {} records appended, {} read back",
                    appends,
                    log.records.len()
                )),
                Err(e) => errors.push(format!("wal replay: {e}")),
            }
        }
        Err(e) => errors.push(format!("wal replay: {e}")),
    }
    let _ = std::fs::remove_file(wal_path);

    // Version chains: every write recorded in order; a snapshot below the
    // first write must undo every one of them (all cells back to zero).
    // Snapshots are then timed on chains pruned to their last `LIVE`
    // entries, the live length a GC watermark keeps under an admission
    // window of 32.
    let mut chains: BTreeMap<u32, (VersionChain, Vec<u64>)> = BTreeMap::new();
    for (i, o) in orders.iter().enumerate() {
        if o.mode == AccessMode::Write {
            let seq = i as u64 + 1;
            let (chain, seqs) = chains.entry(o.partition.0).or_default();
            chain.record(seq, wtpg_core::txn::TxnId(o.txn), o.units);
            seqs.push(seq);
        }
    }
    const LIVE: usize = 32;
    let (mut calls, mut ns) = (0u64, 0u128);
    for (&p, (chain, seqs)) in &mut chains {
        let current = cells(PartitionId(p));
        if chain
            .snapshot_cells(&current, 0, &[])
            .iter()
            .any(|&c| c != 0)
        {
            errors.push(format!(
                "chain replay: partition {p} does not unwind to zero"
            ));
        }
        let live = &seqs[seqs.len().saturating_sub(LIVE)..];
        chain.prune_below(live[0]);
        for &horizon in live {
            let t0 = Instant::now();
            let snap = chain.snapshot_cells(&current, horizon, &[]);
            ns += t0.elapsed().as_nanos();
            calls += 1;
            std::hint::black_box(snap);
        }
    }
    st.snapshot_cells_us = ns as f64 / 1e3 / calls.max(1) as f64;
    st
}
