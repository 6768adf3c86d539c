//! Figure 11: normalized execution time of Ratchet, GECKO w/o pruning and
//! GECKO over the NVP baseline — outage-free bench-supply runs. The grid
//! runs on the campaign engine (`gecko_fleet::figures::fig11`).

use super::SchemeKind;

/// One app × scheme measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11Row {
    /// Benchmark name.
    pub app: String,
    /// Scheme name.
    pub scheme: String,
    /// Execution cycles per completed run.
    pub cycles_per_run: f64,
    /// Normalized to NVP (1.0 = baseline).
    pub normalized: f64,
}

crate::impl_record!(Fig11Row {
    app,
    scheme,
    cycles_per_run,
    normalized
});

/// Geometric-mean normalized time per scheme — the "avg" bar.
pub fn summary(rows: &[Fig11Row]) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for scheme in SchemeKind::all() {
        let vals: Vec<f64> = rows
            .iter()
            .filter(|r| r.scheme == scheme.name())
            .map(|r| r.normalized)
            .collect();
        let geomean = (vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp();
        out.push((scheme.name().to_string(), geomean));
    }
    out
}
