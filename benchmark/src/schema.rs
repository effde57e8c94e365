//! `BENCHMARK.json`, as far as the benchmark itself reads it: `selfcheck`
//! takes run length, bounds and directions from it, and the tests hold the
//! names a run prints against it.

use serde::Deserialize;

/// A workload and the reason it is in the benchmark.
#[derive(Debug, Deserialize)]
#[cfg_attr(not(test), allow(dead_code))] // read by the schema tests only
pub struct WorkloadEntry {
    pub name: String,
    pub why: String,
}

/// An end-to-end metric and the share of the parent's median it may
/// worsen by.
#[derive(Debug, Deserialize)]
pub struct EndToEndEntry {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: f64,
}

/// A per-layer metric; never gated.
#[derive(Debug, Deserialize)]
#[cfg_attr(not(test), allow(dead_code))] // read by the schema tests only
pub struct PerLayerEntry {
    pub name: String,
    pub unit: String,
    pub better: String,
}

/// The whole file.
#[derive(Debug, Deserialize)]
#[cfg_attr(not(test), allow(dead_code))] // some keys are read by the schema tests only
pub struct Benchmark {
    pub command: Vec<String>,
    pub paths: Vec<String>,
    pub run_seconds: u64,
    pub workloads: Vec<WorkloadEntry>,
    pub end_to_end: Vec<EndToEndEntry>,
    pub per_layer: Vec<PerLayerEntry>,
}

impl Benchmark {
    /// Read `BENCHMARK.json` from the root of the checkout this package
    /// was built in.
    pub fn load() -> Result<Self, String> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let benchmark = Benchmark::load().unwrap();
        let names: Vec<&str> = (benchmark.workloads.iter().map(|w| w.name.as_str()))
            .chain(benchmark.end_to_end.iter().map(|m| m.name.as_str()))
            .chain(benchmark.per_layer.iter().map(|m| m.name.as_str()))
            .collect();
        for name in &names {
            assert!(well_formed(name), "{name}");
        }
        assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), names.len());
        for workload in &benchmark.workloads {
            assert!(workload.why.len() <= 200 && !workload.why.contains('\n'));
        }
    }

    #[test]
    fn bounds_directions_and_the_command_keep_to_the_contract() {
        let benchmark = Benchmark::load().unwrap();
        for metric in &benchmark.end_to_end {
            assert!(
                metric.bound > 0.0 && metric.bound <= 0.25,
                "{}",
                metric.name
            );
            assert!(["lower", "higher"].contains(&metric.better.as_str()));
        }
        for metric in &benchmark.per_layer {
            assert!(["lower", "higher"].contains(&metric.better.as_str()));
        }
        let setup = benchmark
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is an end-to-end metric");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        let largest = benchmark
            .end_to_end
            .iter()
            .map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, largest, "setup_s has the largest bound");
        assert_eq!(benchmark.paths, ["benchmark"]);
        assert!(benchmark
            .command
            .iter()
            .any(|arg| arg == "benchmark/Cargo.toml"));
        assert!((1..=60).contains(&benchmark.run_seconds));
    }
}
