//! `storm`: the five Task-Bench dependence patterns with zero work per
//! task, on `Runtime::homogeneous(8)` and the sequential engine.
//!
//! Why: only `machine` events and `core` routing, scheduler and arena are
//! on the clock — `pup`, `lb`, collectives and the tracer do nothing — so a
//! hot-path change shows here at full size. `trivial` (self-sends, one
//! event per timestamp bucket) and `all_to_all` (64-way ties) sit at the
//! two ends of the calendar queue's bucket depth, so a gain for one that
//! costs the other shows.

use crate::harness::{
    mix, ratio, run_arm, run_arms, trace_overhead, Args, Arm, ArmSpec, Ledger, Outcome,
};
use crate::patterns::{Graph, Pattern};
use crate::probes::{self, ProbeBudget};
use crate::stats::floor;
use std::time::Duration;

/// `(width, steps)` sized for about a million tasks per repetition.
fn base_size(p: Pattern) -> (i64, u64) {
    match p {
        Pattern::Trivial | Pattern::Tree => (512, 2000),
        Pattern::Stencil1d => (512, 670),
        Pattern::Fft => (512, 1000),
        Pattern::AllToAll => (64, 250),
    }
}

/// The graph a seed selects: the step count moves by up to 3 % with the
/// seed, so exact counts and simulated times differ between seeds while
/// per-task figures stay comparable.
pub fn graph(p: Pattern, args: &Args) -> Graph {
    let (width, steps) = base_size(p);
    let steps = if args.smoke { steps / 25 } else { steps };
    let jitter = mix(args.seed, 10 + p as u64) % (steps / 32 + 1);
    Graph {
        pattern: p,
        width,
        steps: steps + jitter,
        seed: mix(args.seed, 1),
    }
}

pub fn run(args: &Args, l: &mut Ledger) -> Outcome {
    // A traced run spends part of its time on the layer probes.
    let arms_share = if args.trace { 0.55 } else { 1.0 };
    let budget = Duration::from_secs_f64(args.seconds * arms_share);
    let min_reps = args.min_reps(8);

    let graphs = Pattern::ALL.map(|p| graph(p, args));
    let specs = graphs
        .iter()
        .map(|g| ArmSpec::new(g.pattern.name(), move || g.run(|b| b, |_, _| ())))
        .collect();
    let arms: Vec<(Graph, Arm)> = graphs
        .iter()
        .copied()
        .zip(run_arms(l, budget, min_reps, args.trace, specs))
        .collect();
    for (g, arm) in &arms {
        l.check(arm.first.tasks == g.expected_tasks(), || {
            format!(
                "{}: executed {} tasks, the graph has {}",
                arm.name,
                arm.first.tasks,
                g.expected_tasks()
            )
        });
        println!(
            "  {:<11} {:>8} tasks  {:>7.1} ns/task  run {}",
            arm.name,
            arm.first.tasks,
            arm.ns_per_task(),
            arm.run_summary()
        );
    }

    if args.trace {
        per_layer(args, l, &arms);
    }
    Outcome {
        arms: arms.iter().map(|(_, a)| a.stat()).collect(),
        child_peak_rss: 0,
    }
}

fn per_layer(args: &Args, l: &mut Ledger, arms: &[(Graph, Arm)]) {
    for (_, a) in arms {
        l.set(
            format!("core.storm.{}.ns_per_task", a.name),
            a.ns_per_task(),
        );
    }
    // Exact counters, summed over the five patterns.
    let sum = |f: &dyn Fn(&Arm) -> f64| arms.iter().map(|(_, a)| f(a)).sum::<f64>();
    let events = sum(&|a| a.first.events as f64);
    let messages = sum(&|a| a.first.messages as f64);
    l.set("storm.events", events);
    l.set("storm.sim_makespan_s", sum(&|a| a.first.sim_end_s));
    l.set(
        "machine.events.ops_per_event",
        ratio(sum(&|a| a.first.queue_ops as f64), events),
    );
    l.set(
        "core.alloc.calls_per_event",
        ratio(sum(&|a| a.first.alloc_calls as f64), events),
    );
    l.set(
        "core.arena.bypass_per_event",
        ratio(sum(&|a| a.first.alloc_bypass as f64), events),
    );
    l.set(
        "core.arena.bytes_per_event",
        ratio(sum(&|a| a.first.arena_bytes as f64), events),
    );
    l.set("core.runtime.msgs_per_event", ratio(messages, events));
    l.set(
        "core.runtime.bytes_per_msg",
        ratio(sum(&|a| a.first.bytes as f64), messages),
    );

    // Host-side calls, from the stencil arm (512 chares).
    let (g, stencil) = arms
        .iter()
        .find(|(g, _)| g.pattern == Pattern::Stencil1d)
        .expect("stencil_1d is a pattern");
    let per_chare = |key: &'static str| {
        let v: Vec<f64> = stencil
            .reps
            .iter()
            .filter_map(|r| r.extra.get(key).copied())
            .collect();
        floor(&v) * 1e9 / g.width as f64
    };
    l.set("core.runtime.setup_ns_per_chare", per_chare("insert_s"));
    l.set("core.runtime.send_host_ns", per_chare("inject_s"));
    l.set(
        "core.runtime.state_digest_ns_per_chare",
        per_chare("digest_s"),
    );

    // Routing: the same graph with the location cache off, differenced.
    let budget = Duration::from_secs_f64(args.seconds * 0.08);
    let cache_off = run_arm(l, "stencil_1d/cache_off", budget, 3, || {
        g.run(|b| b.location_cache(false), |_, _| ())
    });
    l.check(cache_off.first.digest == stencil.first.digest, || {
        "location_cache(false) changed the final state".into()
    });
    l.set(
        "core.routing.cache_off_ns_per_task",
        cache_off.ns_per_task() - stencil.ns_per_task(),
    );

    let pb = ProbeBudget {
        each: Duration::from_secs_f64(args.seconds * 0.04),
        min: 5,
        shrink: if args.smoke { 8 } else { 1 },
    };
    probes::machine_queues(l, pb);
    probes::machine_network(l, pb, args.seed);

    // The computed ledger for one stencil task: queue operations at the
    // probed cost per operation, allocator calls at the probed cost per
    // pair, and what neither explains.
    let tasks = stencil.first.tasks as f64;
    let queue_est =
        ratio(stencil.first.queue_ops as f64, tasks) * l.get("machine.events.push_pop_ns") / 2.0;
    let alloc_est = ratio(stencil.first.alloc_calls as f64, tasks) * probes::alloc_pair_ns(pb);
    l.set("core.ledger.queue_est_ns", queue_est);
    l.set("core.ledger.alloc_est_ns", alloc_est);
    l.set(
        "core.ledger.residual_ns",
        stencil.ns_per_task() - queue_est - alloc_est,
    );

    l.set(
        "bench.trace_overhead_share",
        trace_overhead(arms.iter().map(|(_, a)| a)),
    );
}
