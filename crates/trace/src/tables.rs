//! Plain-text table rendering for the experiment harness.
//!
//! Renders aligned monospace tables (and Markdown) so `repro` can print
//! rows shaped exactly like the paper's Tables 1–4.

use std::fmt::Write as _;

/// Column alignment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Align {
    /// Left-aligned (labels).
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// A simple text table builder.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table; the first column is left-aligned, the rest right.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        let aligns = headers
            .iter()
            .enumerate()
            .map(|(i, _)| if i == 0 { Align::Left } else { Align::Right })
            .collect();
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            aligns,
            rows: Vec::new(),
        }
    }

    /// Overrides column alignments.
    pub fn with_aligns(mut self, aligns: &[Align]) -> Self {
        assert_eq!(aligns.len(), self.headers.len());
        self.aligns = aligns.to_vec();
        self
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                w[i] = w[i].max(c.chars().count());
            }
        }
        w
    }

    /// Renders as an aligned monospace table.
    pub fn to_text(&self) -> String {
        let w = self.widths();
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "{}", self.title);
        }
        let fmt_row = |cells: &[String], w: &[usize], aligns: &[Align]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let pad = w[i].saturating_sub(c.chars().count());
                match aligns[i] {
                    Align::Left => {
                        line.push_str(c);
                        line.push_str(&" ".repeat(pad));
                    }
                    Align::Right => {
                        line.push_str(&" ".repeat(pad));
                        line.push_str(c);
                    }
                }
            }
            line.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &w, &self.aligns));
        let total: usize = w.iter().sum::<usize>() + 2 * (w.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &w, &self.aligns));
        }
        out
    }

    /// Renders as a GitHub-flavoured Markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "### {}\n", self.title);
        }
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let seps: Vec<&str> = self
            .aligns
            .iter()
            .map(|a| match a {
                Align::Left => ":---",
                Align::Right => "---:",
            })
            .collect();
        let _ = writeln!(out, "| {} |", seps.join(" | "));
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }
}

/// Renders a per-thread summary table from [`pcr::Sim::threads`] output:
/// name, priority, CPU consumed, lifecycle — the "who is doing what"
/// view the authors used alongside their event histories.
pub fn thread_table(infos: &[pcr::ThreadInfo]) -> Table {
    let mut t = Table::new("Threads", &["Thread", "Prio", "CPU", "Gen", "State"]);
    let mut sorted: Vec<&pcr::ThreadInfo> = infos.iter().collect();
    sorted.sort_by_key(|t| std::cmp::Reverse(t.cpu));
    for info in sorted {
        let state = if info.panicked {
            "panicked"
        } else if info.exited {
            "exited"
        } else {
            "alive"
        };
        t.row(vec![
            info.name.clone(),
            info.priority.to_string(),
            info.cpu.to_string(),
            info.generation.to_string(),
            state.to_string(),
        ]);
    }
    t
}

/// Renders the per-kind hazard tallies from a run as a table: one row
/// per detector plus a total, so chaos runs can surface what the
/// [`pcr::HazardMonitor`] caught next to the benchmark tables.
pub fn hazard_table(counts: &pcr::HazardCounts) -> Table {
    let mut t = Table::new("Hazards", &["Hazard", "Count"]);
    t.row(vec![
        "naked notify (§5.3)".to_string(),
        counts.naked_notifies.to_string(),
    ]);
    t.row(vec![
        "wait without re-check (§5.3)".to_string(),
        counts.wait_without_recheck.to_string(),
    ]);
    t.row(vec![
        "starvation / inversion (§6.2)".to_string(),
        counts.starvations.to_string(),
    ]);
    t.row(vec![
        "livelock (§5.2)".to_string(),
        counts.livelocks.to_string(),
    ]);
    t.row(vec![
        "spurious-conflict storm (§6.1)".to_string(),
        counts.spurious_conflict_storms.to_string(),
    ]);
    t.row(vec!["total".to_string(), counts.total().to_string()]);
    t
}

/// Renders the §6.1 per-monitor contention profile as a table, hottest
/// monitor first: how often each lock was entered, how many of those
/// entries had to queue, and the hold/wait times behind the queueing.
/// Rows come from [`crate::ContentionProfiler::rows`].
pub fn contention_table(rows: &[crate::MonitorProfileRow]) -> Table {
    let mut t = Table::new(
        "Monitor contention (§6.1)",
        &[
            "Monitor",
            "Enters",
            "Contended",
            "Cont%",
            "Mean hold µs",
            "Max hold µs",
            "Mean wait µs",
            "Max wait µs",
        ],
    );
    for r in rows {
        let p = &r.profile;
        let us = |d: Option<pcr::SimDuration>| {
            d.map_or_else(|| "-".to_string(), |d| d.as_micros().to_string())
        };
        t.row(vec![
            r.name.to_string(),
            p.enters.to_string(),
            p.contended.to_string(),
            pct(p.contention_fraction() * 100.0),
            us(p.mean_hold()),
            p.max_hold.as_micros().to_string(),
            us(p.mean_wait()),
            p.max_wait.as_micros().to_string(),
        ]);
    }
    t
}

/// ASCII sparkline over the log₂-µs buckets of one priority level,
/// trimmed to the last non-empty bucket and scaled to the fullest one.
fn bucket_spark(buckets: &[u64]) -> String {
    const GLYPHS: &[u8] = b" .:-=+*#@";
    let top = match buckets.iter().rposition(|&c| c > 0) {
        Some(i) => i,
        None => return String::new(),
    };
    let peak = *buckets.iter().max().unwrap();
    buckets[..=top]
        .iter()
        .map(|&c| {
            let i = if c == 0 {
                0
            } else {
                // Non-zero counts always get at least the faintest glyph.
                1 + (c * (GLYPHS.len() as u64 - 2) / peak) as usize
            };
            GLYPHS[i] as char
        })
        .collect()
}

/// Renders the §6.2/§6.3 wakeup-to-run latency profile as a table: one
/// row per priority level that dispatched anything, with mean / p50 /
/// p99 / max ready-queue waits and a log₂-µs histogram sparkline.
///
/// p50 and p99 are the floors of the histogram bucket in which the
/// quantile falls, so they are resolved to a power of two of
/// microseconds, not exact.
pub fn latency_table(lat: &pcr::SchedLatency) -> Table {
    let mut t = Table::new(
        "Wakeup-to-run latency (§6.2)",
        &[
            "Priority",
            "Dispatches",
            "Mean µs",
            "p50 µs",
            "p99 µs",
            "Max µs",
            "log₂-µs histogram",
        ],
    )
    .with_aligns(&[
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Left,
    ]);
    for (p, h) in lat.levels.iter().enumerate() {
        let n = h.count();
        if n == 0 {
            continue;
        }
        let quantile = |q| h.quantile_floor_us(q).unwrap_or(0).to_string();
        t.row(vec![
            (p + 1).to_string(),
            n.to_string(),
            lat.mean_wait(p).map_or(0, |d| d.as_micros()).to_string(),
            quantile(0.50),
            quantile(0.99),
            h.max_us().to_string(),
            bucket_spark(h.counts()),
        ]);
    }
    t
}

/// Formats a float with one decimal, the paper's table style.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a float as a whole number.
pub fn f0(x: f64) -> String {
    format!("{x:.0}")
}

/// Formats a percentage like the paper ("82%").
pub fn pct(x: f64) -> String {
    format!("{x:.0}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_text() {
        let mut t = Table::new("Table 1", &["Benchmark", "Forks/sec"]);
        t.row(vec!["Idle Cedar", "0.9"]);
        t.row(vec!["Keyboard input", "5.0"]);
        let s = t.to_text();
        assert!(s.contains("Table 1"));
        assert!(s.contains("Idle Cedar"));
        // Numbers right-aligned under the header.
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[1].ends_with("Forks/sec"));
        assert!(lines[3].ends_with("0.9"));
    }

    #[test]
    fn renders_markdown() {
        let mut t = Table::new("T", &["A", "B"]);
        t.row(vec!["x", "1"]);
        let md = t.to_markdown();
        assert!(md.contains("| A | B |"));
        assert!(md.contains("| :--- | ---: |"));
        assert!(md.contains("| x | 1 |"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_mismatch_panics() {
        let mut t = Table::new("T", &["A", "B"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f1(3.16), "3.2");
        assert_eq!(f0(131.7), "132");
        assert_eq!(pct(81.9), "82%");
    }

    #[test]
    fn thread_table_sorts_by_cpu() {
        use pcr::{millis, Priority, RunLimit, Sim, SimConfig};
        let mut sim = Sim::new(SimConfig::default());
        let _ = sim.fork_root("big", Priority::of(3), |ctx| ctx.work(millis(30)));
        let _ = sim.fork_root("small", Priority::of(4), |ctx| ctx.work(millis(5)));
        sim.run(RunLimit::ToCompletion);
        let t = thread_table(&sim.threads());
        let text = t.to_text();
        let big_pos = text.find("big").unwrap();
        let small_pos = text.find("small").unwrap();
        assert!(big_pos < small_pos, "rows not CPU-sorted:\n{text}");
        assert!(text.contains("exited"));
    }

    #[test]
    fn hazard_table_rows_and_total() {
        let counts = pcr::HazardCounts {
            naked_notifies: 2,
            livelocks: 1,
            ..Default::default()
        };
        let t = hazard_table(&counts);
        assert_eq!(t.len(), 6);
        let text = t.to_text();
        assert!(text.contains("naked notify"));
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("total"), "{last}");
        assert!(last.ends_with('3'), "{last}");
    }

    #[test]
    fn contention_table_renders_rows() {
        use crate::{MonitorProfile, MonitorProfileRow};
        let rows = vec![MonitorProfileRow {
            monitor: 0,
            name: "heap".into(),
            profile: MonitorProfile {
                enters: 10,
                contended: 4,
                total_hold: pcr::micros(1000),
                max_hold: pcr::micros(300),
                total_wait: pcr::micros(400),
                max_wait: pcr::micros(250),
            },
        }];
        let t = contention_table(&rows);
        let text = t.to_text();
        assert!(text.contains("heap"), "{text}");
        assert!(text.contains("40%"), "{text}");
        assert!(text.contains("100"), "mean hold missing:\n{text}");
    }

    #[test]
    fn latency_table_skips_idle_priorities() {
        let mut lat = pcr::SchedLatency::default();
        lat.record(pcr::Priority::of(3), pcr::micros(0));
        lat.record(pcr::Priority::of(3), pcr::micros(9));
        let t = latency_table(&lat);
        assert_eq!(t.len(), 1, "only priority 3 dispatched");
        let text = t.to_text();
        assert!(text.contains('3'), "{text}");
        assert!(text.contains('9'), "max missing:\n{text}");
    }

    #[test]
    fn bucket_spark_trims_and_scales() {
        assert_eq!(bucket_spark(&[0, 0, 0]), "");
        let s = bucket_spark(&[8, 0, 1, 8]);
        assert_eq!(s.len(), 4, "{s}");
        assert_eq!(s.chars().nth(1).unwrap(), ' ', "{s}");
        assert_eq!(s.chars().next(), s.chars().last(), "{s}");
    }

    #[test]
    fn empty_and_len() {
        let mut t = Table::new("", &["A"]);
        assert!(t.is_empty());
        t.row(vec!["x"]);
        assert_eq!(t.len(), 1);
    }
}
