//! Spans recorded by the benchmark around its own calls into each layer's
//! public functions. Spans live in memory; nothing here is compiled into
//! the engine.
//!
//! A traced repetition records raw spans. When it ends they are folded
//! into per-name duration lists at the repetition's reference-speed scale
//! (see `run::CALIB_REF_NS`) and dropped, so a run's memory is bounded by
//! one repetition's spans plus eight bytes per span of the others.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// `parent` / `op` value of a span that has none.
pub const NONE: u32 = u32::MAX;

/// One timed call. `name` is `<layer>.<call>`; spans of one operation
/// share `op`; `parent` is the index of the span that caused this one.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Trace {
    t0: Instant,
    /// The current repetition's spans, as measured.
    pub spans: Vec<Span>,
    /// Scaled durations of every closed repetition's spans, by span name;
    /// and, under `"<root>><layer>"`, per root span the summed duration of
    /// its direct children of that layer (`"<root>>"`: of all of them).
    folded: BTreeMap<String, Vec<u64>>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            t0: Instant::now(),
            spans: Vec::new(),
            folded: BTreeMap::new(),
        }
    }

    /// Open a span now; close it with [`Trace::end`].
    pub fn begin(&mut self, name: &'static str, op: u32, parent: u32) -> u32 {
        let idx = self.spans.len() as u32;
        let now = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: now,
            end_ns: now,
        });
        idx
    }

    pub fn end(&mut self, idx: u32) {
        self.spans[idx as usize].end_ns = self.t0.elapsed().as_nanos() as u64;
    }

    /// Record `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u32,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let idx = self.begin(name, op, parent);
        let r = f();
        self.end(idx);
        r
    }

    /// End of a traced repetition: fold its spans in, their durations
    /// multiplied by `scale`, and forget them.
    pub fn close_rep(&mut self, scale: f64) {
        let scaled = |s: &Span| (s.dur() as f64 * scale).round() as u64;
        // Per root span that has children: layer -> summed child duration.
        let mut children: BTreeMap<u32, BTreeMap<&str, u64>> = BTreeMap::new();
        for s in &self.spans {
            self.folded
                .entry(s.name.to_string())
                .or_default()
                .push(scaled(s));
            if s.parent != NONE {
                let layer = s.name.split('.').next().unwrap_or(s.name);
                let sums = children.entry(s.parent).or_default();
                *sums.entry(layer).or_default() += scaled(s);
                *sums.entry("").or_default() += scaled(s);
            }
        }
        for (root, sums) in children {
            let root = self.spans[root as usize].name;
            for (layer, sum) in sums {
                self.folded
                    .entry(format!("{root}>{layer}"))
                    .or_default()
                    .push(sum);
            }
        }
        self.spans.clear();
    }

    /// Scaled durations, in nanoseconds, of every folded span called
    /// `name`; or, for `"<root>><layer>"`, the per-root child sums.
    pub fn durations(&self, name: &str) -> &[u64] {
        self.folded.get(name).map_or(&[], Vec::as_slice)
    }

    /// Write the current repetition's spans, as measured, as one JSON
    /// array of `{name, op_id, parent, start_ns, end_ns}`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let field = |v: u32| match v {
                NONE => "null".to_string(),
                v => v.to_string(),
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"op_id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}{}",
                s.name,
                field(s.op),
                field(s.parent),
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" },
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folding_scales_durations_and_sums_children_per_layer() {
        let mut t = Trace::new();
        let a = t.begin("engine.get", 0, NONE);
        let c1 = t.begin("lock.lock", 0, a);
        t.end(c1);
        let c2 = t.begin("wal.append", 0, a);
        t.end(c2);
        let c3 = t.begin("lock.release_all", 0, a);
        t.end(c3);
        t.end(a);
        let b = t.begin("engine.get", 1, NONE);
        t.end(b);
        for (idx, dur) in [(c1, 30), (c2, 12), (c3, 8)] {
            t.spans[idx as usize].end_ns = t.spans[idx as usize].start_ns + dur;
        }
        // A repetition on a host half as fast reports half the time.
        t.close_rep(0.5);
        assert!(t.spans.is_empty());
        assert_eq!(t.durations("wal.append"), [6]);
        assert_eq!(t.durations("engine.get>lock"), [19]);
        assert_eq!(
            t.durations("engine.get>"),
            [25],
            "childless roots have no sum"
        );
        assert_eq!(t.durations("engine.get").len(), 2);
        assert_eq!(t.durations("no.such"), [0u64; 0]);
    }
}
