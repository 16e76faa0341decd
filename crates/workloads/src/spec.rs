//! Benchmark and system identifiers for the paper's measurement suite.

use std::fmt;

/// Which of the two studied systems a world or fork site belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum System {
    /// The Cedar research system (348 classified fork sites).
    Cedar,
    /// GlobalView, the product system (234 classified fork sites).
    Gvx,
}

impl System {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            System::Cedar => "Cedar",
            System::Gvx => "GVX",
        }
    }
}

/// The benchmarks of Tables 1–3. Cedar runs all eight; GVX runs the four
/// interactive ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Benchmark {
    /// Nothing but the eternal threads.
    Idle,
    /// Typing (~4–5 keystrokes/sec).
    Keyboard,
    /// Mouse motion (no clicks).
    Mouse,
    /// Scrolling a text window.
    Scroll,
    /// Formatting a document into a page description language.
    Format,
    /// Previewing pages described by a page description language.
    Preview,
    /// Checking whether a program needs recompiling.
    Make,
    /// Compiling.
    Compile,
}

impl Benchmark {
    /// The Cedar benchmark suite, in Table 1's row order.
    pub const CEDAR: [Benchmark; 8] = [
        Benchmark::Idle,
        Benchmark::Keyboard,
        Benchmark::Mouse,
        Benchmark::Scroll,
        Benchmark::Format,
        Benchmark::Preview,
        Benchmark::Make,
        Benchmark::Compile,
    ];

    /// The GVX benchmark suite, in Table 1's row order.
    pub const GVX: [Benchmark; 4] = [
        Benchmark::Idle,
        Benchmark::Keyboard,
        Benchmark::Mouse,
        Benchmark::Scroll,
    ];

    /// The suite for a system.
    pub fn suite(system: System) -> &'static [Benchmark] {
        match system {
            System::Cedar => &Self::CEDAR,
            System::Gvx => &Self::GVX,
        }
    }

    /// The row label used in the paper's tables.
    pub fn label(self, system: System) -> String {
        match (system, self) {
            (System::Cedar, Benchmark::Idle) => "Idle Cedar".to_string(),
            (System::Gvx, Benchmark::Idle) => "Idle GVX".to_string(),
            (_, Benchmark::Keyboard) => "Keyboard input".to_string(),
            (_, Benchmark::Mouse) => "Mouse movement".to_string(),
            (_, Benchmark::Scroll) => "Window scrolling".to_string(),
            (_, Benchmark::Format) => "Document formatting".to_string(),
            (_, Benchmark::Preview) => "Document previewing".to_string(),
            (_, Benchmark::Make) => "Make program".to_string(),
            (_, Benchmark::Compile) => "Compile".to_string(),
        }
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// The paper's published values for one benchmark row, used by
/// EXPERIMENTS.md and the shape tests.
#[derive(Clone, Copy, Debug)]
pub struct PaperRow {
    /// Table 1: forks/sec.
    pub forks_per_sec: f64,
    /// Table 1: thread switches/sec.
    pub switches_per_sec: f64,
    /// Table 2: CV waits/sec.
    pub waits_per_sec: f64,
    /// Table 2: % of waits that timed out.
    pub timeout_pct: f64,
    /// Table 2: monitor entries/sec.
    pub ml_enters_per_sec: f64,
    /// Table 3: distinct CVs waited on.
    pub distinct_cvs: usize,
    /// Table 3: distinct monitor locks entered.
    pub distinct_mls: usize,
}

/// The paper's Table 1–3 numbers for a (system, benchmark) pair.
pub fn paper_row(system: System, bench: Benchmark) -> PaperRow {
    use Benchmark as B;
    let r = |f, s, w, t, m, cvs, mls| PaperRow {
        forks_per_sec: f,
        switches_per_sec: s,
        waits_per_sec: w,
        timeout_pct: t,
        ml_enters_per_sec: m,
        distinct_cvs: cvs,
        distinct_mls: mls,
    };
    match (system, bench) {
        (System::Cedar, B::Idle) => r(0.9, 132.0, 121.0, 82.0, 414.0, 22, 554),
        (System::Cedar, B::Keyboard) => r(5.0, 269.0, 185.0, 48.0, 2557.0, 32, 918),
        (System::Cedar, B::Mouse) => r(1.0, 191.0, 163.0, 58.0, 1025.0, 26, 734),
        (System::Cedar, B::Scroll) => r(0.7, 172.0, 115.0, 69.0, 2032.0, 30, 797),
        (System::Cedar, B::Format) => r(3.6, 171.0, 130.0, 72.0, 2739.0, 46, 1060),
        (System::Cedar, B::Preview) => r(1.6, 222.0, 157.0, 56.0, 1335.0, 32, 938),
        (System::Cedar, B::Make) => r(0.3, 170.0, 158.0, 61.0, 2218.0, 24, 1296),
        (System::Cedar, B::Compile) => r(0.3, 135.0, 119.0, 82.0, 1365.0, 36, 2900),
        (System::Gvx, B::Idle) => r(0.0, 33.0, 32.0, 99.0, 366.0, 5, 48),
        (System::Gvx, B::Keyboard) => r(0.0, 60.0, 38.0, 42.0, 1436.0, 7, 204),
        (System::Gvx, B::Mouse) => r(0.0, 33.0, 33.0, 96.0, 410.0, 5, 52),
        (System::Gvx, B::Scroll) => r(0.0, 34.0, 25.0, 61.0, 691.0, 6, 209),
        (System::Gvx, _) => panic!("GVX was only measured on the four interactive benchmarks"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_match_paper_rows() {
        assert_eq!(Benchmark::suite(System::Cedar).len(), 8);
        assert_eq!(Benchmark::suite(System::Gvx).len(), 4);
    }

    #[test]
    fn system_names() {
        assert_eq!(System::Cedar.name(), "Cedar");
        assert_eq!(System::Gvx.name(), "GVX");
    }

    #[test]
    fn labels_match_table_style() {
        assert_eq!(Benchmark::Idle.label(System::Cedar), "Idle Cedar");
        assert_eq!(Benchmark::Idle.label(System::Gvx), "Idle GVX");
        assert_eq!(Benchmark::Compile.label(System::Cedar), "Compile");
    }

    #[test]
    fn paper_rows_available_for_all_suite_entries() {
        for sys in [System::Cedar, System::Gvx] {
            for &b in Benchmark::suite(sys) {
                let row = paper_row(sys, b);
                assert!(row.switches_per_sec > 0.0);
            }
        }
    }

    #[test]
    fn gvx_never_forks_in_paper_data() {
        for &b in Benchmark::suite(System::Gvx) {
            assert_eq!(paper_row(System::Gvx, b).forks_per_sec, 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "only measured")]
    fn gvx_compile_row_is_absent() {
        let _ = paper_row(System::Gvx, Benchmark::Compile);
    }
}
