//! Figure 5: the four metrics — BIPS, BIPS³/W, BIPS²/W, BIPS/W — as a
//! function of pipeline depth for a clock-gated modern workload.
//!
//! The paper's observation: BIPS and BIPS³/W show interior optima (≈20 and
//! ≈7–9 stages respectively) while BIPS²/W and BIPS/W are maximised by a
//! single-stage design.

use crate::sweep::WorkloadCurve;
use pipedepth_workloads::WorkloadClass;
use std::fmt;

/// One metric's normalised curve and peak.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSeries {
    /// Label, e.g. `BIPS^3/W`.
    pub label: String,
    /// Values normalised to the series maximum.
    pub values: Vec<f64>,
    /// Depth of the maximum (grid argmax).
    pub peak_depth: u32,
    /// Whether the maximum is interior to the swept range.
    pub interior: bool,
}

/// Result of the Figure 5 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5 {
    /// Workload displayed.
    pub workload_name: String,
    /// Depths simulated.
    pub depths: Vec<f64>,
    /// Series in the paper's order: BIPS, m=3, m=2, m=1 (all clock gated).
    pub series: Vec<MetricSeries>,
}

fn normalise(label: &str, depths: &[f64], ys: Vec<f64>) -> MetricSeries {
    let peak_depth =
        crate::series::peak_x(depths, &ys).expect("series has a finite metric value") as u32;
    let lo = depths[0] as u32;
    let hi = *depths.last().expect("non-empty") as u32;
    MetricSeries {
        label: label.to_string(),
        peak_depth,
        interior: peak_depth > lo && peak_depth < hi,
        values: crate::series::normalise_to_max(&ys).expect("series has a positive maximum"),
    }
}

/// Builds Figure 5 from a finished sweep.
pub fn from_curve(curve: &WorkloadCurve) -> Fig5 {
    let depths = curve.depths();
    let series = vec![
        normalise("BIPS", &depths, curve.throughput_series()),
        normalise("BIPS^3/W", &depths, curve.gated_series(3)),
        normalise("BIPS^2/W", &depths, curve.gated_series(2)),
        normalise("BIPS/W", &depths, curve.gated_series(1)),
    ];
    Fig5 {
        workload_name: curve.workload.name.clone(),
        depths,
        series,
    }
}

impl Fig5 {
    /// Looks up a series by label.
    pub fn series_named(&self, label: &str) -> Option<&MetricSeries> {
        self.series.iter().find(|s| s.label == label)
    }
}

/// Registry spec: the four-metric comparison on the representative modern
/// workload, with `fig5.csv` and a terminal chart.
#[derive(Debug)]
pub struct Spec;

impl crate::experiment::Experiment for Spec {
    fn name(&self) -> &'static str {
        "fig5"
    }

    fn title(&self) -> &'static str {
        "BIPS, BIPS³/W, BIPS²/W, BIPS/W vs depth (modern workload)"
    }

    fn needs_curves(&self) -> bool {
        true
    }

    fn run(&self, ctx: &crate::experiment::Context) -> crate::experiment::ExperimentOutput {
        let fig = from_curve(ctx.curve_for(WorkloadClass::Modern));

        let mut summary = fig.to_string();
        summary.push_str("  B=BIPS  3=BIPS³/W  2=BIPS²/W  1=BIPS/W (normalised)\n");
        summary.push_str(
            &crate::plot::Chart::new(&fig.depths)
                .series('B', &fig.series[0].values)
                .series('3', &fig.series[1].values)
                .series('2', &fig.series[2].values)
                .series('1', &fig.series[3].values)
                .size(64, 14)
                .render(),
        );

        let columns: Vec<(&str, &[f64])> = fig
            .series
            .iter()
            .map(|s| (s.label.as_str(), s.values.as_slice()))
            .collect();
        let table = crate::report::Table::from_series("depth", &fig.depths, &columns)
            .expect("metric series share the depth axis");
        crate::experiment::ExperimentOutput {
            summary,
            artifacts: vec![crate::experiment::Artifact::new("fig5.csv", table.to_csv())],
        }
    }
}

impl fmt::Display for Fig5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 5 — metrics vs depth for {} (clock gated)",
            self.workload_name
        )?;
        for s in &self.series {
            let kind = if s.interior {
                "interior peak"
            } else {
                "boundary"
            };
            writeln!(
                f,
                "  {:<9} optimum @{:>2} stages ({kind})",
                s.label, s.peak_depth
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;
    use crate::sweep::RunConfig;
    use pipedepth_workloads::suite_class;

    /// Figure 5 on the first modern workload, the one the registry spec
    /// displays.
    fn fig() -> Fig5 {
        let w = suite_class(WorkloadClass::Modern)
            .into_iter()
            .next()
            .expect("modern class populated");
        let config = RunConfig {
            warmup: 10_000,
            instructions: 25_000,
            depths: (2..=25).collect(),
            ..RunConfig::default()
        };
        from_curve(&runner::shared().sweep_workload(&w, &config))
    }

    #[test]
    fn bips_and_m3_have_interior_peaks() {
        let f = fig();
        assert!(f.series_named("BIPS").unwrap().interior);
        assert!(f.series_named("BIPS^3/W").unwrap().interior);
    }

    #[test]
    fn m1_peaks_at_shallowest_design() {
        let f = fig();
        let m1 = f.series_named("BIPS/W").unwrap();
        assert_eq!(m1.peak_depth, 2, "BIPS/W optimises unpipelined");
        assert!(!m1.interior);
    }

    #[test]
    fn metric_peaks_are_ordered_in_m() {
        // Deeper optima for more performance-weighted metrics.
        let f = fig();
        let p1 = f.series_named("BIPS/W").unwrap().peak_depth;
        let p2 = f.series_named("BIPS^2/W").unwrap().peak_depth;
        let p3 = f.series_named("BIPS^3/W").unwrap().peak_depth;
        let pb = f.series_named("BIPS").unwrap().peak_depth;
        assert!(p1 <= p2 && p2 <= p3 && p3 <= pb, "{p1} {p2} {p3} {pb}");
    }

    #[test]
    fn bips3_peak_well_below_bips_peak() {
        // Power pulls the optimum far shallower than performance alone.
        let f = fig();
        let p3 = f.series_named("BIPS^3/W").unwrap().peak_depth;
        let pb = f.series_named("BIPS").unwrap().peak_depth;
        assert!(pb >= p3 + 4, "BIPS @{pb}, BIPS³/W @{p3}");
    }

    #[test]
    fn series_normalised() {
        let f = fig();
        for s in &f.series {
            let max = s.values.iter().cloned().fold(f64::MIN, f64::max);
            assert!((max - 1.0).abs() < 1e-12);
        }
    }
}
