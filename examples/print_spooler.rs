//! A print spooler on **real threads**: the `paradigms` crate handed a
//! `mesa::RealCtx` instead of a simulated thread — the adoptable face
//! of the paper's catalogue.
//!
//! * defer work: every document renders in its own forked thread while
//!   the "UI" returns instantly (§4.1);
//! * serializer: an `MbQueue` feeds the (single) printer in submission
//!   order (§4.6);
//! * slack process: `spawn_slack` coalesces duplicate status updates
//!   before they hit the (expensive) status display (§4.2);
//! * a poisoned render job panics and dies alone — nothing it was
//!   forked from notices;
//! * one-shot: `delayed_fork` times out an abandoned print dialog (§4.3).
//!
//! Run with: `cargo run --example print_spooler`

use threadstudy::mesa::RealCtx;
use threadstudy::paradigms::defer::defer;
use threadstudy::paradigms::oneshot::delayed_fork;
use threadstudy::paradigms::pump::BoundedQueue;
use threadstudy::paradigms::serializer::MbQueue;
use threadstudy::paradigms::slack::{merge_by_key, spawn_slack, SlackPolicy};
use threadstudy::pcr::{millis, Guard, Priority, Runtime, SimDuration};

fn main() {
    let ctx = &RealCtx::root();
    let prio = Priority::DEFAULT; // Recorded, not enforced, on real threads.

    // The printer: one device, one serializer thread (§4.6).
    let printer = MbQueue::new(ctx, "printer", prio, 16);

    // Status updates flow through a slack process that merges repeated
    // updates for the same job before the costly display redraw (§4.2).
    let status_q: BoundedQueue<(u32, &'static str), RealCtx> =
        BoundedQueue::new(ctx, "status", 128, None);
    let status_display = spawn_slack(
        ctx,
        "status-display",
        prio,
        status_q.clone(),
        SlackPolicy::SleepTimeout(millis(5)),
        SimDuration::ZERO,
        merge_by_key(|s: &(u32, &'static str)| s.0),
        |_ctx: &RealCtx, batch| {
            for (job, state) in batch {
                println!("  [status] job {job}: {state}");
            }
        },
    );

    // The render farm: defer each document to its own thread (§4.1).
    let printed = ctx.new_monitor("printed", 0u32);
    for job in 0..8u32 {
        let (printer, status_q, printed) = (printer.clone(), status_q.clone(), printed.clone());
        defer(ctx, &format!("render-{job}"), move |ctx: &RealCtx| {
            status_q.put(ctx, (job, "rendering"));
            if job == 3 {
                // A poisoned document: only this thread dies.
                panic!("corrupt PostScript in job 3");
            }
            ctx.sleep(millis(10));
            status_q.put(ctx, (job, "queued for printer"));
            let status_q2 = status_q.clone();
            printer.enqueue(ctx, millis(5), move |ctx: &RealCtx| {
                status_q2.put(ctx, (job, "printed"));
                ctx.enter(&printed).with_mut(|n| *n += 1);
            });
        })
        .expect("fork render job");
    }

    // An abandoned print dialog times out via a one-shot (§4.3).
    let dialog = delayed_fork(ctx, "dialog-timeout", prio, millis(60), |_: &RealCtx| {
        println!("  [dialog] print dialog timed out and closed itself");
    });

    // Let everything drain: all but the poisoned job get printed.
    while ctx.enter(&printed).with(|n| *n) < 7 || !dialog.fired(ctx) {
        ctx.sleep(millis(5));
    }
    printer.stop(ctx);
    status_q.close(ctx);
    status_display.wait_done(ctx);
    let stats = status_display.stats(ctx);

    println!("\njobs printed      : {}", ctx.enter(&printed).with(|n| *n));
    println!(
        "status updates    : {} merged into {} display redraws",
        stats.items_in, stats.batches_out
    );
    assert!(stats.batches_out <= stats.items_in);
}
