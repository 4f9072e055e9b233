//! The headline comparison: bottleneck load of every counter
//! implementation across network sizes — centralized counters scale as
//! Θ(n), the paper's retirement tree as O(k) = O(log n / log log n).
//!
//! Run with: `cargo run --release --example bottleneck_comparison`

use distctr::analysis::{fmt_f64, Table};
use distctr::bound::theory;
use distctr::prelude::*;

fn run<C: Counter>(
    mut counter: C,
    seed: u64,
) -> Result<(String, usize, u64, f64), Box<dyn std::error::Error>> {
    let outcome = SequentialDriver::run_shuffled(&mut counter, seed)?;
    assert!(outcome.values_are_sequential(), "{} must count correctly", counter.name());
    Ok((
        counter.name().to_string(),
        counter.processors(),
        counter.loads().max_load(),
        outcome.messages_per_op(),
    ))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut table = Table::new(vec!["algorithm", "n", "k(n)", "bottleneck", "msgs/op"]);
    for n in [8usize, 81, 1024] {
        let k = theory::lower_bound_k(n as u64);
        let width = ((n as f64).sqrt() as usize).next_power_of_two();
        let rows = vec![
            run(CentralCounter::new(n)?, 7)?,
            run(TreeCounter::builder(n)?.retirement(RetirementPolicy::Never).build()?, 7)?,
            run(CombiningTreeCounter::new(n)?, 7)?,
            run(CountingNetworkCounter::new(n, width)?, 7)?,
            run(DiffractingTreeCounter::new(n, width.trailing_zeros())?, 7)?,
            run(TreeCounter::new(n)?, 7)?,
        ];
        for (name, actual_n, bottleneck, mpo) in rows {
            table.row(vec![
                name,
                actual_n.to_string(),
                k.to_string(),
                bottleneck.to_string(),
                fmt_f64(mpo),
            ]);
        }
    }
    println!("Bottleneck load over the canonical workload (1 inc per processor):\n");
    println!("{table}");
    println!("Shapes to observe:");
    println!("  * central / static-tree / combining / diffracting grow ~linearly with n");
    println!("  * retirement-tree stays near its 20k ceiling (k = 2, 3, 4)");
    println!("  * nothing ever drops below k — the paper's lower bound");
    Ok(())
}
