//! The metric catalogue and the one-line JSON result.
//!
//! The metric names and units are the ones `BENCHMARK.json` declares,
//! read from that file at build time.  Every run prints every
//! end-to-end metric (untraced) or every per-layer metric (traced),
//! whatever the workload; a per-layer metric of a layer the workload
//! never calls reads 0.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use v2d_machine::KernelClass;
use v2d_obs::Json;

use crate::trace::Layer;

const BENCHMARK_JSON: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

/// The uncovered remainder of the traced region's CPU time.
const REMAINDER: &str = "trace.self_ms.remainder";

/// `(name, unit)` of every metric in `BENCHMARK.json`'s list `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let json = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let items = json.get(key).and_then(Json::as_arr).expect("BENCHMARK.json lists its metrics");
    let field = |m: &Json, k: &str| {
        m.get(k).and_then(Json::as_str).expect("every metric has a name and a unit").to_string()
    };
    items.iter().map(|m| (field(m, "name"), field(m, "unit"))).collect()
}

/// The end-to-end metrics, then the per-layer metrics.  Kernel bytes are
/// computed from the kernels' reported shapes, not measured.
fn catalogue() -> &'static [Vec<(String, String)>; 2] {
    static CATALOGUE: OnceLock<[Vec<(String, String)>; 2]> = OnceLock::new();
    CATALOGUE.get_or_init(|| [declared("end_to_end"), declared("per_layer")])
}

/// Metric-name slug of a kernel class.
pub fn kernel_slug(class: KernelClass) -> String {
    class.name().to_ascii_lowercase()
}

/// One run's outcome.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<String, f64>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            catalogue().iter().flatten().any(|(n, _)| n == name),
            "metric {name} is not declared in BENCHMARK.json"
        );
        self.values.insert(name.to_string(), value);
    }

    /// Set `trace.self_ms.<layer>` for each layer, the traced CPU total
    /// `trace.cpu_ms`, and the remainder the layers leave uncovered.
    pub fn set_self_times(&mut self, cpu_s: f64, layers: &[(Layer, f64)]) {
        self.set("trace.cpu_ms", 1e3 * cpu_s);
        let mut covered = 0.0;
        for &(layer, s) in layers {
            self.set(&format!("trace.self_ms.{}", layer.name()), 1e3 * s);
            covered += s;
        }
        self.set(REMAINDER, 1e3 * (cpu_s - covered));
    }

    /// Record one checked output: counts it as attempted, and as failed
    /// (with the reason on stderr) when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: output check failed: {}", what());
        }
    }

    /// The result line: end-to-end metrics untraced, per-layer traced,
    /// led by the workload's name when one is given.
    pub fn to_json(&self, traced: bool, workload: Option<&str>) -> String {
        let catalogue = &catalogue()[usize::from(traced)];
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let v = match self.values.get(name) {
                    Some(v) => *v,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let lead = workload.map_or(String::new(), |w| format!("\"workload\": \"{w}\", "));
        format!(
            "{{{lead}\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut r = Report::default();
        for (name, _) in &catalogue()[0] {
            r.set(name, 1.5);
        }
        r.check(true, String::new);
        let line = Json::parse(&r.to_json(false, None)).expect("valid JSON");
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let traced = Json::parse(&r.to_json(true, Some("w"))).expect("valid JSON");
        let Some(Json::Obj(m)) = traced.get("metrics") else { panic!("metrics object") };
        assert_eq!(m.len(), catalogue()[1].len());
    }
}
