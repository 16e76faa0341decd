//! A multi-stage pipeline builder over [`crate::pump`] (§4.2).
//!
//! "Though Birrell suggests creating pipelines to exploit parallelism on
//! a multiprocessor, we find them most commonly used in our systems as a
//! programming convenience ... the pipeline is conceptually simpler:
//! tokens just appear in a queue. The programmer needs to understand
//! less about the pieces being connected."
//!
//! The builder connects pump stages through bounded buffers with
//! back-pressure, optionally ending in a slack stage; feeding and
//! closing the source propagates shutdown stage by stage.

use pcr::{Priority, Runtime, SimDuration, ThreadCtx};

use crate::pump::{spawn_pump, BoundedQueue};

/// A pipeline under construction: `In` is the source item type, `T` the
/// current tail type.
pub struct PipelineBuilder<'a, In: Send + 'static, T: Send + 'static, C: Runtime = ThreadCtx> {
    ctx: &'a C,
    name: String,
    stage: usize,
    capacity: usize,
    priority: Priority,
    source: BoundedQueue<In, C>,
    tail: BoundedQueue<T, C>,
}

/// Starts a pipeline: returns a builder whose source queue accepts `T`.
pub fn pipeline<'a, T: Send + 'static, C: Runtime>(
    ctx: &'a C,
    name: &str,
    capacity: usize,
    priority: Priority,
) -> PipelineBuilder<'a, T, T, C> {
    let source = BoundedQueue::new(ctx, &format!("{name}.q0"), capacity, None);
    PipelineBuilder {
        ctx,
        name: name.to_string(),
        stage: 0,
        capacity,
        priority,
        tail: source.clone(),
        source,
    }
}

impl<'a, In: Send + 'static, T: Send + 'static, C: Runtime> PipelineBuilder<'a, In, T, C> {
    /// Appends a pump stage transforming `T -> U` (returning `None`
    /// filters the item out), costing `cost` of CPU per item.
    pub fn stage<U, F>(self, cost: SimDuration, f: F) -> PipelineBuilder<'a, In, U, C>
    where
        U: Send + 'static,
        F: FnMut(T) -> Option<U> + Send + 'static,
    {
        let stage = self.stage + 1;
        let out: BoundedQueue<U, C> = BoundedQueue::new(
            self.ctx,
            &format!("{}.q{stage}", self.name),
            self.capacity,
            None,
        );
        spawn_pump(
            self.ctx,
            &format!("{}.stage{stage}", self.name),
            self.priority,
            self.tail,
            out.clone(),
            cost,
            f,
        );
        PipelineBuilder {
            ctx: self.ctx,
            name: self.name,
            stage,
            capacity: self.capacity,
            priority: self.priority,
            source: self.source,
            tail: out,
        }
    }

    /// Finishes the pipeline: put into `source`, take from `sink`;
    /// closing the source drains and closes every stage in turn.
    pub fn build(self) -> Pipeline<In, T, C> {
        Pipeline {
            source: self.source,
            sink: self.tail,
        }
    }
}

/// Handle pair for a fully built pipeline.
pub struct Pipeline<In: Send + 'static, Out: Send + 'static, C: Runtime = ThreadCtx> {
    /// Feed items here.
    pub source: BoundedQueue<In, C>,
    /// Collect results here; yields `None` after the source closes and
    /// the stages drain.
    pub sink: BoundedQueue<Out, C>,
}

/// Builds a two-stage pipeline in one call (the common case).
#[allow(clippy::too_many_arguments)] // stage cost/fn pairs read best flat
pub fn two_stage<C, In, Mid, Out, F1, F2>(
    ctx: &C,
    name: &str,
    capacity: usize,
    priority: Priority,
    cost1: SimDuration,
    f1: F1,
    cost2: SimDuration,
    f2: F2,
) -> Pipeline<In, Out, C>
where
    C: Runtime,
    In: Send + 'static,
    Mid: Send + 'static,
    Out: Send + 'static,
    F1: FnMut(In) -> Option<Mid> + Send + 'static,
    F2: FnMut(Mid) -> Option<Out> + Send + 'static,
{
    pipeline::<In, C>(ctx, name, capacity, priority)
        .stage(cost1, f1)
        .stage(cost2, f2)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr::{millis, secs, RunLimit, Sim, SimConfig, StopReason};

    #[test]
    fn three_stage_pipeline_transforms_and_filters() {
        let mut sim = Sim::new(SimConfig::default());
        let h = sim.fork_root("driver", Priority::of(5), move |ctx| {
            let p = pipeline::<u32, _>(ctx, "p", 8, Priority::of(4))
                .stage(millis(1), |x: u32| x.is_multiple_of(2).then_some(x)) // Filter odds.
                .stage(millis(1), |x: u32| Some(x * 10))
                .stage(millis(1), |x: u32| Some(format!("v{x}")))
                .build();
            for i in 0..10 {
                p.source.put(ctx, i);
            }
            p.source.close(ctx);
            let mut got = Vec::new();
            while let Some(s) = p.sink.take(ctx) {
                got.push(s);
            }
            got
        });
        let r = sim.run(RunLimit::For(secs(10)));
        assert_eq!(r.reason, StopReason::AllExited);
        assert_eq!(
            h.into_result().unwrap().unwrap(),
            vec!["v0", "v20", "v40", "v60", "v80"]
        );
    }

    #[test]
    fn two_stage_helper() {
        let mut sim = Sim::new(SimConfig::default());
        let h = sim.fork_root("driver", Priority::of(5), move |ctx| {
            let p = two_stage(
                ctx,
                "p2",
                4,
                Priority::of(4),
                millis(1),
                |x: u32| Some(x + 1),
                millis(1),
                |x: u32| Some(x * 2),
            );
            for i in 0..5 {
                p.source.put(ctx, i);
            }
            p.source.close(ctx);
            let mut got = Vec::new();
            while let Some(v) = p.sink.take(ctx) {
                got.push(v);
            }
            got
        });
        sim.run(RunLimit::For(secs(10)));
        assert_eq!(h.into_result().unwrap().unwrap(), vec![2, 4, 6, 8, 10]);
    }

    #[test]
    fn backpressure_propagates_to_the_source() {
        // A slow stage with tiny buffers must slow the producer: with
        // capacity 1 the pipeline holds at most ~3 items in flight, so
        // feeding 6 items takes at least three 20ms stage cycles.
        let mut sim = Sim::new(SimConfig::default());
        let h = sim.fork_root("driver", Priority::of(5), move |ctx| {
            let p = pipeline::<u32, _>(ctx, "bp", 1, Priority::of(4))
                .stage(millis(20), Some)
                .build();
            let source = p.source.clone();
            let feeder = ctx
                .fork("feeder", move |ctx| {
                    let t0 = ctx.now();
                    for i in 0..6 {
                        source.put(ctx, i); // Blocks once buffers fill.
                    }
                    ctx.now().since(t0)
                })
                .unwrap();
            let mut got = 0;
            while got < 6 {
                if p.sink.take(ctx).is_some() {
                    got += 1;
                }
            }
            let fed_at = ctx.join(feeder).unwrap();
            p.source.close(ctx);
            while p.sink.take(ctx).is_some() {}
            fed_at
        });
        sim.run(RunLimit::For(secs(10)));
        let fed_at = h.into_result().unwrap().unwrap();
        assert!(
            fed_at >= millis(40),
            "producer should have been back-pressured, fed in {fed_at}"
        );
    }
}
