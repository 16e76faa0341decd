//! The `repro` binary's exit-code vocabulary.
//!
//! Every failure class gets a distinct code so CI and scripts can tell
//! *what* went wrong without parsing output. Commands accumulate codes
//! with [`worst`] and exit with the maximum — the most severe condition
//! wins, and success stays 0.

/// Everything checked out.
pub const OK: i32 = 0;
/// Hazard detectors fired outside an expected context, or a chaos
/// replay diverged.
pub const HAZARD: i32 = 1;
/// Bad command line.
pub const USAGE: i32 = 2;
/// A world deadlocked or wedged (including a supervised run that gave
/// up).
pub const DEADLOCK: i32 = 3;
/// `repro diff` found deltas beyond the threshold.
pub const DIFF_DELTA: i32 = 4;
/// A measured quantity regressed against a baseline, or a stored
/// failure no longer reproduces.
pub const REGRESSION: i32 = 5;
/// A file could not be read, written, or parsed.
pub const IO: i32 = 6;
/// The fuzzer found a failure that no injected fault or seeded world explains.
pub const UNEXPLAINED: i32 = 7;
/// A serve run missed one of its input-to-echo latency SLO gates.
pub const SLO_BREACH: i32 = 8;

/// Accumulates exit codes: the most severe (numerically largest) wins.
pub fn worst(acc: i32, code: i32) -> i32 {
    acc.max(code)
}

/// Writes a whole output file, reporting `wrote PATH` or `cannot write
/// PATH: why` on stderr: [`OK`] or [`IO`], never a panic.
pub fn write(path: impl AsRef<std::path::Path>, text: impl AsRef<[u8]>) -> i32 {
    let path = path.as_ref();
    match std::fs::write(path, text) {
        Ok(()) => {
            eprintln!("wrote {}", path.display());
            OK
        }
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            IO
        }
    }
}

/// One line per code, for `repro help`.
pub const TABLE: &str = "\
exit codes:
  0  success
  1  hazards detected / chaos replay diverged
  2  bad command line
  3  deadlock or wedge (or supervised run gave up)
  4  diff deltas beyond threshold
  5  regression vs baseline, or stored failure no longer reproduces
  6  file I/O or parse error
  7  fuzzer found a failure with an unexplained cause
  8  serve run breached an input-to-echo SLO gate";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_distinct_and_ordered_by_severity_class() {
        let codes = [
            OK,
            HAZARD,
            USAGE,
            DEADLOCK,
            DIFF_DELTA,
            REGRESSION,
            IO,
            UNEXPLAINED,
            SLO_BREACH,
        ];
        let mut dedup = codes.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), codes.len(), "exit codes must be distinct");
    }

    #[test]
    fn worst_keeps_the_maximum() {
        assert_eq!(worst(OK, DEADLOCK), DEADLOCK);
        assert_eq!(worst(UNEXPLAINED, HAZARD), UNEXPLAINED);
        assert_eq!(worst(OK, OK), OK);
    }

    #[test]
    fn table_documents_every_code() {
        for code in [
            OK,
            HAZARD,
            USAGE,
            DEADLOCK,
            DIFF_DELTA,
            REGRESSION,
            IO,
            UNEXPLAINED,
            SLO_BREACH,
        ] {
            assert!(
                TABLE
                    .lines()
                    .any(|l| l.trim_start().starts_with(&code.to_string())),
                "exit code {code} undocumented"
            );
        }
    }
}
