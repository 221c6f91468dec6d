//! Seeded inputs: the key/value generator, the operation stream, and the
//! model of every acknowledged write that outputs are checked against.
//! The engine under test sees only what this module generates.

/// Value length of every record (the key adds eight bytes).
pub const VALUE_LEN: usize = 64;
/// User bytes one live record carries.
pub const RECORD_BYTES: u64 = 8 + VALUE_LEN as u64;
/// Rows a SCAN asks for: its key range spans this many loaded keys.
pub const SCAN_ROWS: u64 = 32;

/// xorshift64* seeded through splitmix64, so nearby seeds give unrelated
/// streams. Owned by the benchmark so an engine-side RNG change cannot
/// alter the inputs.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The value stored under `key` at its `version`-th write. Carrying both
/// makes a stale or misplaced record visible to the verifier.
pub fn value_for(key: u64, version: u32) -> [u8; VALUE_LEN] {
    let mut v = [(key as u8) ^ (version as u8); VALUE_LEN];
    v[..8].copy_from_slice(&key.to_le_bytes());
    v[8..12].copy_from_slice(&version.to_le_bytes());
    v
}

/// Every acknowledged write, indexed by key: the version last written, or
/// zero when the key is absent. Keys are dense small integers, so a vector
/// is the whole map and a lookup costs nothing next to an engine call.
pub struct Model {
    versions: Vec<u32>,
    live: u64,
}

impl Model {
    pub fn new(key_space: u64) -> Model {
        Model {
            versions: vec![0; key_space as usize],
            live: 0,
        }
    }

    pub fn version(&self, key: u64) -> u32 {
        self.versions[key as usize]
    }

    pub fn expected(&self, key: u64) -> Option<[u8; VALUE_LEN]> {
        match self.version(key) {
            0 => None,
            v => Some(value_for(key, v)),
        }
    }

    /// Record an acknowledged PUT.
    pub fn put(&mut self, key: u64, version: u32) {
        if self.versions[key as usize] == 0 {
            self.live += 1;
        }
        self.versions[key as usize] = version;
    }

    /// Record an acknowledged DELETE.
    pub fn delete(&mut self, key: u64) {
        if self.versions[key as usize] != 0 {
            self.live -= 1;
        }
        self.versions[key as usize] = 0;
    }

    pub fn live(&self) -> u64 {
        self.live
    }

    /// Live `(key, version)` pairs with `lo <= key <= hi`, ascending.
    pub fn range(&self, lo: u64, hi: u64) -> impl Iterator<Item = (u64, u32)> + '_ {
        let hi = hi.min(self.versions.len() as u64 - 1);
        (lo..=hi).filter_map(|k| match self.versions[k as usize] {
            0 => None,
            v => Some((k, v)),
        })
    }

    /// The first live key at or after `from`, wrapping once.
    fn live_from(&self, from: u64) -> Option<u64> {
        let n = self.versions.len() as u64;
        (0..n)
            .map(|i| (from + i) % n)
            .find(|k| self.versions[*k as usize] != 0)
    }
}

/// Shares of the operation stream, in percent; writes split further into
/// fresh inserts, deletes, and (the rest) overwrites of a live key.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub get: u8,
    pub write: u8,
    pub scan: u8,
    pub fresh_of_writes: u8,
    pub delete_of_writes: u8,
}

/// One generated operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Get {
        key: u64,
    },
    /// Write `value_for(key, version)`; `exists` says whether the model
    /// holds the key, which in-process callers need to pick insert/update.
    Put {
        key: u64,
        version: u32,
        exists: bool,
    },
    Delete {
        key: u64,
    },
    Scan {
        lo: u64,
        hi: u64,
    },
}

/// Latency class an operation is reported under.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Get = 0,
    Put = 1,
    Scan = 2,
}

impl Op {
    /// PUT, update, insert and delete all report as the write latency.
    pub fn kind(&self) -> Kind {
        match self {
            Op::Get { .. } => Kind::Get,
            Op::Put { .. } | Op::Delete { .. } => Kind::Put,
            Op::Scan { .. } => Kind::Scan,
        }
    }
}

/// The seeded operation stream over keys `0..2*loaded`: even keys are
/// loaded at set-up, odd keys are the fresh inserts. On a churned tree the
/// odd keys were loaded too, so reads and scans start at any key.
pub struct Gen {
    rng: Rng,
    /// Which kind each operation of a 100-cycle is, in seeded order, so
    /// that the shares are exact and not merely expected.
    kinds: [Slot; 100],
    /// The same for which sort of write each write of a 100-cycle is.
    writes: [Slot; 100],
    issued: usize,
    written: usize,
    loaded: u64,
    churned: bool,
    /// Odd-key indices in seeded order; each fresh insert takes the next.
    fresh: Vec<u32>,
    next_fresh: usize,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Slot {
    Get,
    Write,
    Scan,
    Fresh,
    Delete,
    Overwrite,
}

/// `a` slots of `x`, then `b` of `y`, the rest `z`, shuffled.
fn schedule(rng: &mut Rng, (a, x): (u8, Slot), (b, y): (u8, Slot), z: Slot) -> [Slot; 100] {
    let mut slots = [z; 100];
    slots[..a as usize].fill(x);
    slots[a as usize..(a + b) as usize].fill(y);
    for i in (1..slots.len()).rev() {
        slots.swap(i, rng.below(i as u64 + 1) as usize);
    }
    slots
}

impl Gen {
    pub fn new(seed: u64, mix: Mix, loaded: u64, churned: bool) -> Gen {
        assert_eq!(mix.get + mix.write + mix.scan, 100, "mix must sum to 100");
        let mut rng = Rng::new(seed);
        let mut fresh: Vec<u32> = if mix.fresh_of_writes > 0 {
            (0..loaded as u32).collect()
        } else {
            Vec::new()
        };
        for i in (1..fresh.len()).rev() {
            fresh.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let kinds = schedule(
            &mut rng,
            (mix.get, Slot::Get),
            (mix.write, Slot::Write),
            Slot::Scan,
        );
        let writes = schedule(
            &mut rng,
            (mix.fresh_of_writes, Slot::Fresh),
            (mix.delete_of_writes, Slot::Delete),
            Slot::Overwrite,
        );
        Gen {
            rng,
            kinds,
            writes,
            issued: 0,
            written: 0,
            loaded,
            churned,
            fresh,
            next_fresh: 0,
        }
    }

    /// The next operation, chosen so that it cannot fail against `model`.
    pub fn next(&mut self, model: &Model) -> Op {
        let kind = self.kinds[self.issued % 100];
        self.issued += 1;
        let key = if self.churned {
            self.rng.below(2 * self.loaded)
        } else {
            2 * self.rng.below(self.loaded)
        };
        match kind {
            Slot::Get => return Op::Get { key },
            Slot::Scan => {
                return Op::Scan {
                    lo: key,
                    hi: key + 2 * SCAN_ROWS - 1,
                }
            }
            _ => {}
        }
        let write = self.writes[self.written % 100];
        self.written += 1;
        if write == Slot::Fresh && self.next_fresh < self.fresh.len() {
            let key = 2 * self.fresh[self.next_fresh] as u64 + 1;
            self.next_fresh += 1;
            return self.put(key, model);
        }
        match model.live_from(key) {
            Some(live) if write == Slot::Delete => Op::Delete { key: live },
            Some(live) => self.put(live, model),
            None => self.put(key, model),
        }
    }

    fn put(&self, key: u64, model: &Model) -> Op {
        let old = model.version(key);
        Op::Put {
            key,
            version: old + 1,
            exists: old != 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix {
        get: 40,
        write: 50,
        scan: 10,
        fresh_of_writes: 50,
        delete_of_writes: 25,
    };

    fn stream(seed: u64, n: usize) -> Vec<Op> {
        let mut model = Model::new(2 * 1000 + 2 * SCAN_ROWS);
        for k in 0..1000 {
            model.put(2 * k, 1);
        }
        let mut g = Gen::new(seed, MIX, 1000, false);
        (0..n)
            .map(|_| {
                let op = g.next(&model);
                match op {
                    Op::Put { key, version, .. } => model.put(key, version),
                    Op::Delete { key } => model.delete(key),
                    _ => {}
                }
                op
            })
            .collect()
    }

    #[test]
    fn same_seed_same_stream_and_other_seed_other_stream() {
        assert_eq!(stream(7, 2000), stream(7, 2000));
        assert_ne!(stream(7, 2000), stream(8, 2000));
    }

    #[test]
    fn generated_ops_never_fail_against_the_model() {
        let mut seen_fresh = std::collections::BTreeSet::new();
        let mut model = Model::new(2 * 1000 + 2 * SCAN_ROWS);
        for k in 0..1000 {
            model.put(2 * k, 1);
        }
        let mut g = Gen::new(3, MIX, 1000, false);
        for _ in 0..5000 {
            match g.next(&model) {
                Op::Put {
                    key,
                    version,
                    exists,
                } => {
                    assert_eq!(exists, model.version(key) != 0);
                    if key % 2 == 1 && !exists {
                        assert!(seen_fresh.insert(key) || model.version(key) == 0);
                    }
                    model.put(key, version);
                }
                Op::Delete { key } => {
                    assert_ne!(model.version(key), 0, "delete targets a live key");
                    model.delete(key);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn values_differ_by_key_and_version() {
        assert_ne!(value_for(2, 1), value_for(2, 2));
        assert_ne!(value_for(2, 1), value_for(4, 1));
        assert_eq!(&value_for(9, 3)[..8], &9u64.to_le_bytes());
    }
}
