//! In-memory spans for traced runs.
//!
//! The benchmark records a span around each of its own calls into a
//! layer's public API (name, layer, start, end, parent, run id, rank).
//! Each span carries wall time and the calling thread's CPU time, so a
//! rank that the event scheduler parks inside a span is not charged for
//! its peers' work.  Spans stay in memory and are written out, one JSON
//! object per line, when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::host::thread_cpu_ns;

/// The repository layer a span's call lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Core,
    Linalg,
    Machine,
    Comm,
    Io,
    Serve,
    Sve,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Core => "core",
            Layer::Linalg => "linalg",
            Layer::Machine => "machine",
            Layer::Comm => "comm",
            Layer::Io => "io",
            Layer::Serve => "serve",
            Layer::Sve => "sve",
        }
    }
}

/// Rank id of spans recorded on a non-rank thread (the benchmark's main
/// or client threads).
pub const HOST: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub run: u64,
    pub rank: u32,
    pub id: u32,
    /// Id of the enclosing span on the same thread, or 0 at top level.
    pub parent: u32,
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub cpu_ns: u64,
}

/// One thread's span recorder.  Disabled recorders cost one branch per
/// call, so untraced runs share the same code path.
pub struct Spans {
    on: bool,
    epoch: Instant,
    run: u64,
    rank: u32,
    next: u32,
    open: Vec<(u32, u32, &'static str, Layer, u64, u64)>,
    pub done: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool, epoch: Instant, run: u64, rank: u32) -> Self {
        Spans { on, epoch, run, rank, next: 1, open: Vec::new(), done: Vec::new() }
    }

    pub fn begin(&mut self, name: &'static str, layer: Layer) {
        if !self.on {
            return;
        }
        let id = self.next;
        self.next += 1;
        let parent = self.open.last().map_or(0, |o| o.0);
        let start = self.epoch.elapsed().as_nanos() as u64;
        self.open.push((id, parent, name, layer, start, thread_cpu_ns()));
    }

    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let cpu_end = thread_cpu_ns();
        let end = self.epoch.elapsed().as_nanos() as u64;
        let (id, parent, name, layer, start, cpu_start) =
            self.open.pop().expect("span end without a matching begin");
        self.done.push(Span {
            run: self.run,
            rank: self.rank,
            id,
            parent,
            name,
            layer,
            start_ns: start,
            end_ns: end,
            cpu_ns: cpu_end - cpu_start,
        });
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, layer: Layer, f: impl FnOnce() -> T) -> T {
        self.begin(name, layer);
        let out = f();
        self.end();
        out
    }
}

/// Self CPU time per layer: each span's CPU time minus the part its
/// child spans cover.
pub fn self_cpu_by_layer(spans: &[Span]) -> BTreeMap<Layer, f64> {
    let mut child_cpu: BTreeMap<(u64, u32, u32), u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_cpu.entry((s.run, s.rank, s.parent)).or_default() += s.cpu_ns;
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let covered = child_cpu.get(&(s.run, s.rank, s.id)).copied().unwrap_or(0);
        *out.entry(s.layer).or_default() += s.cpu_ns.saturating_sub(covered) as f64 * 1e-9;
    }
    out
}

/// Total CPU seconds of the spans named `name`.
pub fn cpu_of(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(|s| s.cpu_ns as f64 * 1e-9).sum()
}

/// Write the spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let rank = if s.rank == HOST { "\"host\"".to_string() } else { s.rank.to_string() };
        writeln!(
            out,
            "{{\"run\":{},\"rank\":{rank},\"id\":{},\"parent\":{},\"name\":\"{}\",\"layer\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"cpu_ns\":{}}}",
            s.run,
            s.id,
            s.parent,
            s.name,
            s.layer.name(),
            s.start_ns,
            s.end_ns,
            s.cpu_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mk = |id, parent, layer, cpu_ns| Span {
            run: 1,
            rank: 0,
            id,
            parent,
            name: "x",
            layer,
            start_ns: 0,
            end_ns: 0,
            cpu_ns,
        };
        let spans = vec![
            mk(1, 0, Layer::Core, 10_000),
            mk(2, 1, Layer::Linalg, 4_000),
            mk(3, 2, Layer::Comm, 1_000),
        ];
        let by = self_cpu_by_layer(&spans);
        assert!((by[&Layer::Core] - 6e-6).abs() < 1e-12);
        assert!((by[&Layer::Linalg] - 3e-6).abs() < 1e-12);
        assert!((by[&Layer::Comm] - 1e-6).abs() < 1e-12);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false, Instant::now(), 0, 0);
        s.time("a", Layer::Core, || ());
        assert!(s.done.is_empty());
    }
}
