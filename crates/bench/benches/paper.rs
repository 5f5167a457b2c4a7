//! One benchmark per paper artifact: each iteration regenerates the full
//! figure/table and prints nothing. The measured time is the cost of the
//! complete reproduction pipeline (model evaluation, sweeps, simulation).

use act_bench::{black_box, Harness};
use act_dse::Parallelism;
use act_experiments::{par_try_render_experiment, OutputFormat};

fn main() {
    let mut h = Harness::from_env();
    h.bench("bench_fig1", || black_box(act_experiments::fig1::run()));
    h.bench("bench_fig4", || black_box(act_experiments::fig4::run()));
    h.bench("bench_fig6", || black_box(act_experiments::fig6::run()));
    h.bench("bench_fig7", || black_box(act_experiments::fig7::run()));
    h.bench("bench_fig8", || black_box(act_experiments::fig8::run()));
    h.bench("bench_fig9", || black_box(act_experiments::fig9::run()));
    h.bench("bench_fig10", || black_box(act_experiments::fig10::run()));
    h.bench("bench_fig11", || black_box(act_experiments::fig11::run()));
    h.bench("bench_fig12", || black_box(act_experiments::fig12::run()));
    h.bench("bench_fig13", || black_box(act_experiments::fig13::run()));
    h.bench("bench_fig14", || black_box(act_experiments::fig14::run()));
    // The FTL simulation makes fig15 the heaviest artifact: seven serial
    // runs, cold 1.5 ms (40 % PF) to 3.4 ms (4 %) each on a 2-core host.
    // The harness's measurement window bounds it the way criterion's
    // sample_size=10 did.
    h.bench("bench_fig15", || black_box(act_experiments::fig15::run()));
    h.bench("bench_fig16", || black_box(act_experiments::fig16::run()));
    h.bench("bench_fig17", || black_box(act_experiments::fig17::run()));
    h.bench("bench_table4", || black_box(act_experiments::table4::run()));
    h.bench("bench_tables", || black_box(act_experiments::tables::run().to_string()));
    h.bench("bench_table12", || black_box(act_experiments::table12::run()));
    // What a reproducer runs, and what the `paper` workload of the
    // repository benchmark times: every experiment as one job list on the
    // pool, the nine FTL runs of fig15 and ablations heaviest first and
    // the 18 light experiments (~0.8 ms together) beside their tail.
    h.bench("bench_all", || {
        black_box(par_try_render_experiment("all", OutputFormat::Json, Parallelism::Auto))
    });
    h.finish();
}
