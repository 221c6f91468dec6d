//! Lock manager microbenchmarks: grant/release throughput for the classical
//! and the paper's modes, including the instant-duration RS path, the lock
//! calls one `Txn::get` makes, and a commit's release among many holders.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use obr_lock::{LockManager, LockMode, OwnerId, ResourceId};

fn bench_uncontended(c: &mut Criterion) {
    let m = LockManager::new();
    let mut i = 0u32;
    c.bench_function("lock/s-grant-release", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            let r = ResourceId::Page(i % 1024);
            m.lock(OwnerId(1), r, LockMode::S).unwrap();
            m.unlock(OwnerId(1), r);
        })
    });
    c.bench_function("lock/x-grant-release", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            let r = ResourceId::Page(i % 1024);
            m.lock(OwnerId(1), r, LockMode::X).unwrap();
            m.unlock(OwnerId(1), r);
        })
    });
}

fn bench_shared_holders(c: &mut Criterion) {
    let m = LockManager::new();
    let r = ResourceId::Page(7);
    for o in 0..16 {
        m.lock(OwnerId(o), r, LockMode::S).unwrap();
    }
    c.bench_function("lock/s-grant-16-holders", |b| {
        b.iter(|| {
            m.lock(OwnerId(99), r, LockMode::S).unwrap();
            m.unlock(OwnerId(99), r);
        })
    });
}

fn bench_rx_forgo(c: &mut Criterion) {
    let m = LockManager::new();
    let r = ResourceId::Page(3);
    m.lock(OwnerId(9), r, LockMode::RX).unwrap();
    c.bench_function("lock/rx-forgo-fastpath", |b| {
        b.iter(|| {
            // The forgo path must return immediately without queueing.
            black_box(m.lock(OwnerId(1), r, LockMode::S).unwrap_err());
        })
    });
}

fn bench_instant_rs(c: &mut Criterion) {
    let m = LockManager::new();
    let base = ResourceId::Page(11);
    m.lock(OwnerId(1), base, LockMode::S).unwrap();
    c.bench_function("lock/instant-rs-grantable", |b| {
        b.iter(|| {
            // Grantable immediately (only readers hold the base page).
            m.lock_instant(OwnerId(2), base, LockMode::RS).unwrap();
        })
    });
}

fn bench_upgrade(c: &mut Criterion) {
    let m = LockManager::new();
    let mut i = 0u32;
    c.bench_function("lock/r-to-x-upgrade", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            let r = ResourceId::Page(i % 1024);
            m.lock(OwnerId(9), r, LockMode::R).unwrap();
            m.lock(OwnerId(9), r, LockMode::X).unwrap();
            m.unlock(OwnerId(9), r);
        })
    });
}

/// The seven lock calls of one `Txn::get`: tree IS, base S, leaf S, unlock
/// the base, key S, downgrade the leaf, and the commit's `release_all`. A
/// fresh owner per iteration, as each transaction is.
fn bench_get_sequence(c: &mut Criterion) {
    let m = LockManager::new();
    let mut n = 0u64;
    c.bench_function("lock/get-sequence", |b| {
        b.iter(|| {
            n += 1;
            let o = OwnerId(n);
            let base = ResourceId::Page(1);
            let leaf = ResourceId::Page(100 + (n % 64) as u32);
            m.lock(o, ResourceId::Tree(0), LockMode::IS).unwrap();
            m.lock(o, base, LockMode::S).unwrap();
            m.lock(o, leaf, LockMode::S).unwrap();
            m.unlock(o, base);
            m.lock(o, ResourceId::Key(n), LockMode::S).unwrap();
            m.downgrade(o, leaf, LockMode::IS);
            black_box(m.release_all(o));
        })
    });
}

/// A commit releasing three locks while 1 000 other owners each hold the
/// tree in IS and a page and a key in S.
fn bench_release_among_holders(c: &mut Criterion) {
    let m = LockManager::new();
    for i in 0..1000u64 {
        let o = OwnerId(i + 1);
        m.lock(o, ResourceId::Tree(0), LockMode::IS).unwrap();
        m.lock(o, ResourceId::Page(i as u32), LockMode::S).unwrap();
        m.lock(o, ResourceId::Key(i), LockMode::S).unwrap();
    }
    let o = OwnerId(5000);
    c.bench_function("lock/release-all-among-1k-holders", |b| {
        b.iter(|| {
            m.lock(o, ResourceId::Tree(0), LockMode::IS).unwrap();
            m.lock(o, ResourceId::Page(7), LockMode::S).unwrap();
            m.lock(o, ResourceId::Key(5000), LockMode::S).unwrap();
            black_box(m.release_all(o));
        })
    });
}

criterion_group!(
    benches,
    bench_uncontended,
    bench_shared_holders,
    bench_rx_forgo,
    bench_instant_rs,
    bench_upgrade,
    bench_get_sequence,
    bench_release_among_holders
);
criterion_main!(benches);
