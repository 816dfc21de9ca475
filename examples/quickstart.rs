//! Quickstart: the migratable-objects model in one file.
//!
//! Builds a small chare array and drives message-driven execution with a
//! reduction. Run with:
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use charm_rs::{
    ArrayProxy, Callback, Chare, Ctx, Ix, MachineConfig, Pup, Puper, RedOp, RedValue, Runtime,
    SysEvent,
};

/// A chare that squares numbers it receives and contributes the result.
#[derive(Default)]
struct Squarer {
    computed: u64,
}

impl Pup for Squarer {
    fn pup(&mut self, p: &mut Puper) {
        p.p(&mut self.computed);
    }
}

impl Chare for Squarer {
    type Msg = i64;

    fn on_message(&mut self, x: i64, ctx: &mut Ctx<'_>) {
        self.computed += 1;
        // Charge some virtual compute (flops) for the squaring.
        ctx.work(1e5);
        let me = ArrayProxy::<Squarer>::from_id(ctx.my_id().array);
        ctx.contribute(
            me,
            1, // reduction tag
            RedValue::I64(x * x),
            RedOp::Sum,
            Callback::ToChare {
                array: ctx.my_id().array,
                ix: Ix::i1(0),
            },
        );
    }

    fn on_event(&mut self, ev: SysEvent, ctx: &mut Ctx<'_>) {
        if let SysEvent::Reduction { value, .. } = ev {
            ctx.log_metric("sum_of_squares", value.as_i64() as f64);
            ctx.exit();
        }
    }
}

fn main() {
    // 1) A runtime over a simulated 8-PE machine.
    let mut rt = Runtime::builder(MachineConfig::homogeneous(8)).build();

    // 2) Over-decomposition: 32 chares on 8 PEs.
    let arr = rt.create_array::<Squarer>("squarers");
    for i in 0..32 {
        rt.insert(arr, Ix::i1(i), Squarer::default(), None);
    }

    // 3) Asynchronous message-driven execution: every chare squares its
    //    index; a spanning-tree reduction sums the results to element 0.
    for i in 0..32 {
        rt.send(arr, Ix::i1(i), i);
    }
    let summary = rt.run();

    let sum = rt.metric("sum_of_squares").last().expect("reduced").1;
    let expect: i64 = (0..32).map(|i| i * i).sum();
    println!(
        "sum of squares = {sum} (expected {expect}), \
         {} entry methods in {} of virtual time",
        summary.entries, summary.end_time
    );
    assert_eq!(sum as i64, expect);
    println!("quickstart OK");
}
