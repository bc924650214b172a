//! Figure-style reporting: the paper's table rows.
//!
//! Figures 5–7 of the paper print, per program and per analysis, the
//! metric *without* and *with* promotion, the difference, and the
//! percentage removed. [`MeasurementRow`] is one such row;
//! [`measure_program`] produces the four-variant matrix for a source
//! program.

use crate::error::Error;
use crate::session::SessionBuilder;
use analysis::AnalysisLevel;
use vm::{ExecCounts, VmOptions};

/// Which dynamic count a figure reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Figure 5: total operations executed.
    TotalOps,
    /// Figure 6: stores executed.
    Stores,
    /// Figure 7: loads executed.
    Loads,
}

impl Metric {
    /// Extracts the metric from a counter set.
    pub fn of(self, c: &ExecCounts) -> u64 {
        match self {
            Metric::TotalOps => c.total,
            Metric::Stores => c.stores,
            Metric::Loads => c.loads,
        }
    }

    /// The paper's figure number.
    pub fn figure(self) -> u32 {
        match self {
            Metric::TotalOps => 5,
            Metric::Stores => 6,
            Metric::Loads => 7,
        }
    }

    /// Table heading.
    pub fn label(self) -> &'static str {
        match self {
            Metric::TotalOps => "Total Operations",
            Metric::Stores => "Stores",
            Metric::Loads => "Loads",
        }
    }
}

/// Counts for one (program, analysis) pair, without and with promotion.
#[derive(Debug, Clone)]
pub struct MeasurementRow {
    /// Program name.
    pub program: String,
    /// Analysis label (`modref` / `pointer`).
    pub analysis: AnalysisLevel,
    /// Counters with promotion disabled.
    pub without: ExecCounts,
    /// Counters with promotion enabled.
    pub with: ExecCounts,
}

impl MeasurementRow {
    /// The figure's `difference` column.
    pub fn difference(&self, metric: Metric) -> i64 {
        metric.of(&self.without) as i64 - metric.of(&self.with) as i64
    }

    /// The figure's `% removed` column.
    pub fn percent_removed(&self, metric: Metric) -> f64 {
        let base = metric.of(&self.without);
        if base == 0 {
            0.0
        } else {
            100.0 * self.difference(metric) as f64 / base as f64
        }
    }

    /// Formats the row exactly like the paper's figures:
    /// `program  analysis  without  with  difference  %removed`.
    pub fn format(&self, metric: Metric) -> String {
        format!(
            "{:<10} {:<8} {:>12} {:>12} {:>10} {:>8.2}",
            self.program,
            self.analysis.label(),
            metric.of(&self.without),
            metric.of(&self.with),
            self.difference(metric),
            self.percent_removed(metric),
        )
    }
}

/// Runs the paper's 2×2 experiment on one program source.
///
/// Runs [`SessionBuilder::figure_variants`] in order and returns one row
/// per analysis level (the paper's `modref` and `pointer`). The run also
/// asserts that every variant produced identical program output — the
/// end-to-end correctness check.
///
/// # Errors
///
/// Returns the first variant's [`Error`] if the source does not compile
/// or its program faults in the VM.
///
/// # Panics
///
/// Panics if the variants' outputs diverge: that is a miscompile, not bad
/// input.
pub fn measure_program(name: &str, source: &str) -> Result<Vec<MeasurementRow>, Error> {
    let mut runs = Vec::new();
    let mut reference_output: Option<Vec<String>> = None;
    for (label, builder) in SessionBuilder::figure_variants() {
        let session = builder.build();
        let outcome = session.compile(source)?.run(VmOptions::default())?;
        match &reference_output {
            None => reference_output = Some(outcome.output.clone()),
            Some(r) => assert_eq!(r, &outcome.output, "{name}: output diverged at {label}"),
        }
        runs.push((session.config().analysis, outcome.counts));
    }
    // The variants come as a without/with pair per analysis level.
    Ok(runs
        .chunks(2)
        .map(|pair| MeasurementRow {
            program: name.to_string(),
            analysis: pair[0].0,
            without: pair[0].1,
            with: pair[1].1,
        })
        .collect())
}

/// Renders a whole figure (all programs × both analyses) as text.
pub fn render_figure(metric: Metric, rows: &[MeasurementRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Figure {}: {} (per program, without/with promotion)\n",
        metric.figure(),
        metric.label()
    ));
    out.push_str(&format!(
        "{:<10} {:<8} {:>12} {:>12} {:>10} {:>8}\n",
        "program", "analysis", "without", "with", "difference", "%removed"
    ));
    for row in rows {
        out.push_str(&row.format(metric));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_extraction() {
        let c = ExecCounts {
            total: 100,
            loads: 30,
            stores: 20,
            ..Default::default()
        };
        assert_eq!(Metric::TotalOps.of(&c), 100);
        assert_eq!(Metric::Loads.of(&c), 30);
        assert_eq!(Metric::Stores.of(&c), 20);
        assert_eq!(Metric::Stores.figure(), 6);
    }

    #[test]
    fn row_math_matches_the_papers_columns() {
        let row = MeasurementRow {
            program: "mlink".into(),
            analysis: AnalysisLevel::ModRef,
            without: ExecCounts {
                stores: 5_885_109,
                ..Default::default()
            },
            with: ExecCounts {
                stores: 2_506_412,
                ..Default::default()
            },
        };
        // The paper's Figure 6 mlink row: difference 3378697, 57.41%.
        assert_eq!(row.difference(Metric::Stores), 3_378_697);
        let pct = row.percent_removed(Metric::Stores);
        assert!((pct - 57.41).abs() < 0.01, "{pct}");
    }

    #[test]
    fn measure_small_program() {
        let rows = measure_program(
            "toy",
            r#"
int g;
int main() {
    int i;
    for (i = 0; i < 100; i++) g = g + 1;
    print_int(g);
    return 0;
}
"#,
        )
        .expect("toy program compiles and runs");
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.percent_removed(Metric::Stores) > 90.0);
            assert!(row.difference(Metric::Loads) > 0);
        }
        let text = render_figure(Metric::Stores, &rows);
        assert!(text.contains("Figure 6"));
        assert!(text.contains("toy"));
    }
}
