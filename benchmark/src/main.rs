//! The repo's benchmark. One process runs one workload on one pinned
//! CPU: set-up (a golden pass on the default seed, then the seeded
//! inputs warmed up), timed passes for `--seconds`, and one result line.
//! See `benchmark/README.md`.

mod contract;
mod fuzz;
mod golden;
mod host;
mod layers;
mod matrix;
mod offline;
mod serve;
mod spans;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use trace::Json;

use contract::{metrics_object, Contract, Declared};
use golden::Expected;
use spans::SpanLog;
use stats::{median, spread, within_bound, worse_by};
use workload::{Digest, Pass, Sizes, Workload, DEFAULT_SEED};

const USAGE: &str = "\
usage: threadstudy-benchmark --workload <matrix|serve|fuzz|offline> --seed <n>
                             --seconds <s> --trace <0|1> [--smoke]
       threadstudy-benchmark --compare <dir-a> <dir-b>
       threadstudy-benchmark --emit-expected

  --trace 0   print the end-to-end metrics (spans off)
  --trace 1   print the per-layer metrics and write benchmark/out/trace-<workload>.json
  --smoke     one twentieth of the sizes; the goldens do not apply
  --compare   hold the results in <dir-b> against those in <dir-a> by the bounds
              of BENCHMARK.json; deterministic metrics must be identical
  --emit-expected   print expected.json for the simulator as it is now";

/// Exit codes: 0 a correct result was printed; 1 a result was printed
/// but it is not correct, or a comparison failed; 2 usage or a broken
/// declaration; 3 the CPU could not be pinned.
const EXIT_INCORRECT: u8 = 1;
const EXIT_USAGE: u8 = 2;
const EXIT_UNPINNED: u8 = 3;

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

enum Mode {
    Run(RunArgs),
    Compare(String, String),
    EmitExpected,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                seed = Some(parse_u64(&v).ok_or_else(|| format!("--seed {v:?} is not a number"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| format!("--seconds {v:?}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {v} is outside (0, 60]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?} is neither 0 nor 1")),
                });
            }
            "--smoke" => smoke = true,
            "--compare" => return Ok(Mode::Compare(value()?, value()?)),
            "--emit-expected" => return Ok(Mode::EmitExpected),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Mode::Run(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    }))
}

fn build(
    name: &str,
    sizes: &Sizes,
    seed: u64,
    expected: &Expected,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "matrix" => Box::new(matrix::Matrix::new(sizes, seed)),
        "serve" => Box::new(serve::Serve::new(sizes, seed)),
        "fuzz" => Box::new(fuzz::Fuzz::new(
            sizes,
            seed,
            expected.known_signatures.clone(),
        )),
        "offline" => Box::new(offline::Offline::new(sizes, seed)),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Operations attempted and failed over the whole run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn absorb(&mut self, what: &str, pass: &Pass) {
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        for c in &pass.complaints {
            eprintln!("FAIL {what}: {c}");
        }
    }

    /// Holds `got` against `want`, one operation per entry.
    fn check(&mut self, what: &str, want: &Digest, got: &Digest) {
        self.attempted += want.len().max(1) as u64;
        for m in golden::mismatches(want, got) {
            self.failed += 1;
            eprintln!("FAIL {what}: {m}");
        }
    }
}

/// Work units per second of the run's *undisturbed* pass: each
/// segment's fastest time over the passes, summed.
///
/// This box's noise only ever slows things down, in bursts of a few
/// hundred milliseconds and in spells of a minute: over ten runs the
/// median pass wandered by 11–18% of itself (first to third quartile),
/// the sum of segment medians by as much, and the sum of segment minima
/// by 4–6%. A burst spoils one segment of one pass; some pass ran each
/// segment clean.
fn units_per_s(passes: &[Pass]) -> f64 {
    let units = median_of(passes, |p| p.units as f64);
    let fastest = |times: &mut dyn Iterator<Item = f64>| times.fold(f64::INFINITY, f64::min);
    let segments = passes[0].segments.len();
    let undisturbed_s = if passes.iter().all(|p| p.segments.len() == segments) {
        (0..segments)
            .map(|i| fastest(&mut passes.iter().map(|p| p.segments[i])))
            .sum()
    } else {
        // A pass lost a segment to a failed operation.
        fastest(&mut passes.iter().map(|p| p.wall_s()))
    };
    units / undisturbed_s
}

fn median_of(passes: &[Pass], of: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(of).collect::<Vec<_>>())
}

fn print_table(declared: &[Declared], measured: &BTreeMap<String, f64>) {
    for d in declared {
        if let Some(v) = measured.get(&d.name) {
            println!("  {:<46} {:>16.4} {}", d.name, v, d.unit);
        }
    }
}

fn run(args: &RunArgs, pinned: &host::Pinned, started: Instant) -> Result<ExitCode, String> {
    let contract = Contract::load()?;
    let expected = Expected::load()?;
    if !contract.workloads.contains(&args.workload) {
        return Err(format!(
            "BENCHMARK.json declares no workload {:?}",
            args.workload
        ));
    }
    let sizes = if args.smoke {
        Sizes::SMOKE
    } else {
        Sizes::FULL
    };
    let name = args.workload.as_str();
    let pinned_digest = |workload: &str| {
        expected
            .digests
            .get(workload)
            .ok_or_else(|| format!("expected.json pins no digest for {workload}"))
    };
    let mut tally = Tally::default();
    let mut untraced = SpanLog::new(false);
    let mut traced = SpanLog::new(true);

    // Set-up. Round 0 is the golden pass: it warms the process up and
    // proves the simulator still computes what `expected.json` pins.
    let prelude_s = started.elapsed().as_secs_f64();
    let mut round_s = Vec::with_capacity(sizes.setup_rounds);
    let t = Instant::now();
    let golden_pass = build(name, &sizes, DEFAULT_SEED, &expected)?.pass(&mut untraced);
    round_s.push(t.elapsed().as_secs_f64());
    tally.absorb("golden pass", &golden_pass);
    if !args.smoke {
        tally.check("golden pass", pinned_digest(name)?, &golden_pass.digest);
    }
    let (mut workload, reference) = loop {
        let t = Instant::now();
        let mut w = build(name, &sizes, args.seed, &expected)?;
        let pass = w.pass(&mut untraced);
        round_s.push(t.elapsed().as_secs_f64());
        tally.absorb("set-up pass", &pass);
        if round_s.len() == sizes.setup_rounds {
            break (w, pass.digest);
        }
    };
    let setup_s = prelude_s + median(&round_s);

    // Timed passes. A traced run alternates traced and untraced passes,
    // so that the two kinds see the same minutes of host weather.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut plain = Vec::new();
    let mut spanned = Vec::new();
    let run_open = traced.open("workload", args.seed);
    loop {
        let with_spans = args.trace && spanned.len() <= plain.len();
        let pass = if with_spans {
            let open = traced.open("pass", spanned.len() as u64);
            let pass = workload.pass(&mut traced);
            let _ = traced.close(open);
            pass
        } else {
            workload.pass(&mut untraced)
        };
        tally.absorb("timed pass", &pass);
        tally.check("pass-to-pass identity", &reference, &pass.digest);
        if with_spans { &mut spanned } else { &mut plain }.push(pass);
        let enough =
            plain.len() >= sizes.min_passes && (!args.trace || spanned.len() >= sizes.min_passes);
        if enough && Instant::now() >= deadline {
            break;
        }
    }
    let _ = traced.close(run_open);
    let throughput = units_per_s(&plain);
    let pass_rates: Vec<f64> = plain.iter().map(|p| p.units as f64 / p.wall_s()).collect();

    let mut measured = BTreeMap::new();
    let declared = if args.trace {
        measured.insert(
            "tracing.overhead_frac".to_string(),
            1.0 - units_per_s(&spanned) / throughput,
        );
        measured.extend(layers::microworlds(sizes.micro_divisor));
        // One traced pass of every workload on the default seed: the
        // operation counts are then the same numbers on every run.
        let mut ledgers = Vec::new();
        for probe in &contract.workloads {
            let open = traced.open("probe", 0);
            let pass = build(probe, &sizes, DEFAULT_SEED, &expected)?.pass(&mut traced);
            let _ = traced.close(open);
            tally.absorb(&format!("{probe} probe"), &pass);
            if !args.smoke {
                tally.check(
                    &format!("{probe} probe"),
                    pinned_digest(probe)?,
                    &pass.digest,
                );
            }
            ledgers.extend(pass.ledger.map(|l| (probe.clone(), l)));
            measured.extend(pass.layer);
        }
        for (probe, inputs) in &ledgers {
            layers::attribute(&mut measured, probe, inputs);
        }
        std::fs::create_dir_all("benchmark/out").map_err(|e| format!("benchmark/out: {e}"))?;
        let path = format!("benchmark/out/trace-{name}.json");
        std::fs::write(&path, traced.to_chrome().to_string())
            .map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path} ({} spans)", traced.spans.len());
        &contract.per_layer
    } else {
        measured.insert("setup_s".to_string(), setup_s);
        measured.insert("throughput_per_s".to_string(), throughput);
        measured.insert("peak_rss_mb".to_string(), host::peak_rss_mb());
        &contract.end_to_end
    };
    let metrics = metrics_object(declared, &measured)?;

    println!(
        "{name}: seed {:#x}, {} timed passes of {:.0} {} ({}{:.2} s each, median pass {:.1}/s, spread {:.3}), set-up {:?} s",
        args.seed,
        plain.len(),
        median_of(&plain, |p| p.units as f64),
        workload.unit(),
        if args.smoke { "smoke sizes, " } else { "" },
        median_of(&plain, Pass::wall_s),
        median(&pass_rates),
        spread(&pass_rates),
        round_s,
    );
    print_table(declared, &measured);
    let mut provenance = host::provenance(pinned);
    provenance.push("workload", Json::from(name));
    provenance.push("seed", Json::from(args.seed));
    provenance.push("timed_passes", Json::from(plain.len() + spanned.len()));
    provenance.push("sizes", Json::from(format!("{sizes:?}")));
    println!("provenance {provenance}");
    let correct = tally.failed == 0;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::from(correct)),
            ("attempted", Json::from(tally.attempted)),
            ("failed", Json::from(tally.failed)),
            ("metrics", metrics),
        ])
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_INCORRECT)
    })
}

/// The result line of a saved run: the last line of `path`.
fn saved_metrics(path: &Path) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let line = text.lines().last().unwrap_or("");
    let doc = Json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{}: the run was not correct", path.display()));
    }
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err(format!("{}: no metrics", path.display()));
    };
    Ok(metrics
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect())
}

/// A per-layer metric that must repeat exactly from run to run: a count
/// the simulator makes, or a quantity in virtual time.
fn repeats_exactly(d: &Declared) -> bool {
    d.unit == "count" || d.unit.ends_with("_virtual")
}

/// `--compare`: the self-check. Directory `a` is the base.
fn compare(a: &str, b: &str) -> Result<ExitCode, String> {
    let contract = Contract::load()?;
    let mut violations = 0;
    for workload in &contract.workloads {
        let load = |dir: &str, trace: u8| {
            saved_metrics(&Path::new(dir).join(format!("{workload}.trace{trace}.txt")))
        };
        let (ea, eb) = (load(a, 0)?, load(b, 0)?);
        for d in &contract.end_to_end {
            let (va, vb) = (ea[&d.name], eb[&d.name]);
            let bound = d.bound.unwrap_or(0.0);
            let ok = within_bound(va, vb, d.better, bound);
            println!(
                "{} {workload:<8} {:<20} {va:>14.4} -> {vb:>14.4} {:<6} worse by {:+.3} (bound {bound})",
                if ok { "ok  " } else { "FAIL" },
                d.name,
                d.unit,
                worse_by(va, vb, d.better),
            );
            violations += u32::from(!ok);
        }
        let (la, lb) = (load(a, 1)?, load(b, 1)?);
        for d in contract.per_layer.iter().filter(|d| repeats_exactly(d)) {
            if la[&d.name].to_bits() != lb[&d.name].to_bits() {
                println!(
                    "FAIL {workload:<8} {} must repeat exactly: {} then {}",
                    d.name, la[&d.name], lb[&d.name]
                );
                violations += 1;
            }
        }
    }
    println!("{violations} violations");
    Ok(if violations == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_INCORRECT)
    })
}

/// `--emit-expected`: the goldens for the simulator as it is now, for
/// whoever changes a simulated result on purpose.
fn emit_expected() -> Result<ExitCode, String> {
    let contract = Contract::load()?;
    let known = Expected::load()?;
    let mut log = SpanLog::new(false);
    let mut digests = Vec::new();
    for name in &contract.workloads {
        let pass = build(name, &Sizes::FULL, DEFAULT_SEED, &known)?.pass(&mut log);
        digests.push((name.clone(), golden::digest_json(&pass.digest)));
    }
    let matrix_30s = matrix::cells()
        .map(|(sys, bench)| {
            let volume = matrix::volume_at_30s(sys, bench);
            (matrix::cell_label(sys, bench), Json::from(volume))
        })
        .collect();
    let doc = Json::obj([
        ("seed", Json::from(format!("{DEFAULT_SEED:#x}"))),
        ("sizes", Json::from(format!("{:?}", Sizes::FULL))),
        ("digests", Json::Obj(digests)),
        ("matrix_30s", Json::Obj(matrix_30s)),
        (
            "known_signatures",
            Json::arr(
                known
                    .known_signatures
                    .iter()
                    .map(|s| Json::from(s.as_str())),
            ),
        ),
    ]);
    println!("{}", doc.pretty());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&args) {
        Ok(mode) => mode,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let outcome = if let Mode::Compare(a, b) = &mode {
        compare(a, b)
    } else {
        // Everything else runs simulated threads, and so runs pinned.
        let pinned = match host::pin_to_one_cpu() {
            Ok(pinned) => pinned,
            Err(e) => {
                eprintln!("cannot pin to one CPU ({e}); an unpinned figure is not reported");
                return ExitCode::from(EXIT_UNPINNED);
            }
        };
        host::silence_carrier_panics();
        match &mode {
            Mode::Run(run_args) => run(run_args, &pinned, started),
            _ => emit_expected(),
        }
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(EXIT_USAGE)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let Ok(Mode::Run(a)) = parse_args(&args(
            "--workload serve --seed 0xCEDA2026 --seconds 15 --trace 1",
        )) else {
            panic!("should parse");
        };
        assert_eq!(a.workload, "serve");
        assert_eq!(a.seed, DEFAULT_SEED);
        assert_eq!(a.seconds, 15.0);
        assert!(a.trace && !a.smoke);
        assert!(matches!(
            parse_args(&args(
                "--workload fuzz --seed 7 --seconds 1 --trace 0 --smoke"
            )),
            Ok(Mode::Run(RunArgs {
                smoke: true,
                seed: 7,
                ..
            }))
        ));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload matrix --seed 1 --seconds 1",
            "--workload matrix --seed x --seconds 1 --trace 0",
            "--workload matrix --seed 1 --seconds 0 --trace 0",
            "--workload matrix --seed 1 --seconds 61 --trace 0",
            "--workload matrix --seed 1 --seconds 1 --trace 2",
            "--workload matrix --seed 1 --seconds 1 --trace 0 --fast",
            "--compare only-one",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "accepted {bad:?}");
        }
    }

    fn pass(units: u64, segments: &[f64]) -> Pass {
        Pass {
            units,
            segments: segments.to_vec(),
            ..Pass::default()
        }
    }

    #[test]
    fn throughput_is_units_over_the_sum_of_segment_minima() {
        // A burst in every pass, each in another segment: every pass is
        // slow, the undisturbed pass is not.
        let passes = [
            pass(100, &[1.0, 2.0, 9.0]),
            pass(100, &[9.0, 2.5, 1.0]),
            pass(100, &[1.5, 9.0, 1.0]),
        ];
        assert_eq!(units_per_s(&passes), 25.0);
        // A pass that lost a segment falls back to the fastest whole pass.
        let ragged = [pass(100, &[1.0, 3.0]), pass(100, &[2.0]), pass(100, &[5.0])];
        assert_eq!(units_per_s(&ragged), 50.0);
    }

    #[test]
    fn exact_repeat_is_asked_of_counts_and_virtual_time_only() {
        let d = |unit: &str| Declared {
            name: "m".to_string(),
            unit: unit.to_string(),
            better: stats::Better::Lower,
            bound: None,
        };
        assert!(repeats_exactly(&d("count")));
        assert!(repeats_exactly(&d("ms_virtual")));
        assert!(!repeats_exactly(&d("ns")));
        assert!(!repeats_exactly(&d("ratio")));
    }
}
