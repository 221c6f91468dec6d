//! WAL benchmarks: append/encode throughput for the record shapes E6
//! compares — keys-only MOVE and full-record MOVE.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use obr_storage::{Lsn, PageId};
use obr_wal::{LogManager, LogRecord, MovePayload, UnitId};

fn move_keys(n: u64) -> LogRecord {
    LogRecord::ReorgMove {
        unit: UnitId(1),
        org: PageId(1),
        dest: PageId(2),
        payload: MovePayload::Keys((0..n).collect()),
        fresh_dest: None,
        prev_lsn: Lsn(5),
    }
}

fn move_records(n: u64, vlen: usize) -> LogRecord {
    LogRecord::ReorgMove {
        unit: UnitId(1),
        org: PageId(1),
        dest: PageId(2),
        payload: MovePayload::Records((0..n).map(|k| (k, vec![0u8; vlen])).collect()),
        fresh_dest: None,
        prev_lsn: Lsn(5),
    }
}

/// Append with periodic truncation so a full Criterion run (millions of
/// iterations) cannot grow the in-memory log without bound.
fn append_bounded(log: &LogManager, rec: &LogRecord) -> obr_storage::Lsn {
    let lsn = log.append(rec);
    if log.len() > 20_000 {
        log.flush_all().unwrap();
        log.truncate_before(lsn);
    }
    lsn
}

fn bench_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal/append");
    let log = LogManager::new();
    let keys = move_keys(50);
    let recs = move_records(50, 64);
    group.bench_function("move-keys-50", |b| {
        b.iter(|| black_box(append_bounded(&log, &keys)))
    });
    group.bench_function("move-records-50x64B", |b| {
        b.iter(|| black_box(append_bounded(&log, &recs)))
    });
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal/codec");
    let keys = move_keys(50);
    let encoded = keys.encode();
    group.bench_function("encode-move-keys-50", |b| {
        b.iter(|| black_box(keys.encode()))
    });
    group.bench_function("decode-move-keys-50", |b| {
        b.iter(|| black_box(LogRecord::decode(&encoded).unwrap()))
    });
    group.finish();
}

fn bench_flush(c: &mut Criterion) {
    let log = LogManager::new();
    let rec = move_keys(10);
    c.bench_function("wal/append-force", |b| {
        b.iter(|| black_box(append_bounded(&log, &rec)))
    });
}

criterion_group!(benches, bench_append, bench_codec, bench_flush);
criterion_main!(benches);
