//! §6 — the 1-D heat equation over simulated locales (experiment E8).
//!
//! Part 1 (forall over a Block distribution) vs part 2 (coforall with
//! persistent tasks, halo cells and a barrier): identical answers, very
//! different overhead profiles.
//!
//! ```sh
//! cargo run --release --example heat_locales
//! ```

use std::time::Instant;

use peachy::heat::{
    forall::solve_forall_stats, solve_coforall, solve_forall, solve_serial, BlockDist, HeatProblem,
    InitialCondition,
};

fn main() {
    println!("=== E8: 1-D heat equation — forall vs coforall ===\n");

    // Correctness first: validate against the exact eigenmode decay.
    let validation = HeatProblem::validation(4_097, 500);
    let exact = validation.exact_sine_solution().unwrap();
    let got = solve_coforall(&validation, 8);
    let max_err = got
        .iter()
        .zip(&exact)
        .map(|(g, e)| (g - e).abs())
        .fold(0.0f64, f64::max);
    println!("validation vs exact discrete eigenmode: max error {max_err:.2e}\n");

    // The Block distribution in play.
    let dist = BlockDist::new(1_000_000, 8);
    println!(
        "Block distribution of 1 000 000 cells over 8 locales: locale 0 owns {:?}, locale 7 owns {:?}\n",
        dist.local_range(0),
        dist.local_range(7)
    );

    // Overhead study: many steps on a small array (spawn-dominated) and
    // few steps on a big array (compute-dominated).
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut spawn_dominated_ratios = Vec::new();
    for (name, n, nt) in [
        (
            "spawn-dominated (n = 2 000, nt = 20 000)",
            2_000usize,
            20_000usize,
        ),
        (
            "compute-dominated (n = 1 000 000, nt = 100)",
            1_000_000,
            100,
        ),
    ] {
        println!("-- {name} --");
        let p = HeatProblem {
            n,
            alpha: 0.25,
            nt,
            left: 1.0,
            right: 0.0,
            ic: InitialCondition::Gaussian(0.05),
        };
        let t0 = Instant::now();
        let serial = solve_serial(&p);
        let t_serial = t0.elapsed();
        println!("   serial                       {:>10.2?}", t_serial);
        for locales in [2usize, 4, 8] {
            let t0 = Instant::now();
            let (forall, stats) = solve_forall_stats(&p, locales);
            let t_forall = t0.elapsed();
            let t0 = Instant::now();
            let coforall = solve_coforall(&p, locales);
            let t_coforall = t0.elapsed();
            assert_eq!(forall, serial);
            assert_eq!(coforall, serial);
            let ratio = t_coforall.as_secs_f64() / t_forall.as_secs_f64();
            println!(
                "   {locales} locales: forall {:>10.2?} ({} spawns)   coforall {:>10.2?}   coforall/forall = {:.2}",
                t_forall, stats.tasks_spawned, t_coforall, ratio
            );
            if nt > n {
                spawn_dominated_ratios.push((locales, ratio));
            }
        }
        println!();
    }

    // The assignment argues Part 2's persistent tasks win when steps are
    // many and cheap; report whether this run showed it.
    println!("Spawn-dominated regime, {cpus} CPUs on this host:");
    for (locales, ratio) in spawn_dominated_ratios {
        let (winner, note) = if ratio < 1.0 {
            ("coforall (Part 2) wins", "")
        } else {
            ("forall (Part 1) wins", ", not the assignment's ordering")
        };
        let oversubscribed = if locales > cpus {
            "; more locales than CPUs"
        } else {
            ""
        };
        println!(
            "   {locales} locales: {winner}, coforall/forall = {ratio:.2}{note}{oversubscribed}"
        );
    }
    println!();

    // The "across multiple compute nodes" completion: locales as
    // message-passing ranks with halo values travelling as messages.
    let p = HeatProblem::validation(8_193, 200);
    let reference = solve_serial(&p);
    let dist = peachy::heat::solve_distributed(&p, 8);
    println!(
        "distributed (8 message-passing ranks) == serial? {}",
        dist == reference
    );

    // And the 2-D extension, validated against its own exact eigenmode.
    use peachy::heat::heat2d::{solve2d_forall, solve2d_serial, Heat2dProblem};
    let p2 = Heat2dProblem {
        w: 513,
        h: 257,
        alpha: 0.25,
        nt: 100,
        mode: (2, 1),
    };
    let serial2 = solve2d_serial(&p2);
    let par2 = solve2d_forall(&p2, 8);
    let err2 = serial2
        .iter()
        .zip(&p2.exact())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!(
        "2-D extension (513×257, 100 steps): forall == serial? {}; max error vs exact {err2:.2e}",
        par2 == serial2
    );
    let _ = solve_forall(&HeatProblem::validation(65, 10), 2);
}
