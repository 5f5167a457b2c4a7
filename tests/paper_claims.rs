//! Integration tests pinning the paper's headline claims end to end, as
//! stated in the abstract, introduction and Figure 2.

use act::core::OptimizationMetric;

#[test]
fn reuse_claim_general_purpose_wins_by_up_to_1_8x() {
    // "general purpose hardware incurs lower carbon emissions from
    // manufacturing, improving overall carbon footprints by up to 1.8x."
    let advantage = act::experiments::fig10::run().carbon_free_cpu_advantage();
    assert!((1.6..=2.0).contains(&advantage), "advantage {advantage}");
}

#[test]
fn reduce_claim_carbon_aware_dse_cuts_accelerator_footprint_by_about_3x() {
    // "carbon-aware design space exploration reduces the footprint of AI
    // accelerators by up to 3x" (perf-optimal vs QoS-feasible carbon
    // optimum).
    let fig13 = act::experiments::fig13::run();
    let ratio = fig13.qos.performance_optimal().embodied / fig13.qos.carbon_optimal().embodied;
    assert!((2.8..=3.8).contains(&ratio), "ratio {ratio}");
}

#[test]
fn recycle_claim_reliability_investment_cuts_storage_footprint_by_about_2x() {
    // "devoting additional hardware resources to improve reliability
    // reduces the overall carbon footprint of devices by nearly 2x."
    let reduction = act::experiments::fig15::run().second_life_reduction();
    assert!((1.6..=2.0).contains(&reduction), "reduction {reduction}");
}

#[test]
fn recycle_claim_five_year_lifetimes_save_1_26x() {
    let fig14 = act::experiments::fig14::run();
    assert!((4..=6).contains(&fig14.optimal_lifetime()));
    let improvement = fig14.improvement_over_current_lifetimes();
    assert!((1.15..=1.40).contains(&improvement), "improvement {improvement}");
}

#[test]
fn act_provides_breakdowns_lcas_cannot() {
    // Figure 4: ACT's per-IC decomposition exists and reconciles with its
    // platform total, while the LCA value is one opaque number.
    let fig4 = act::experiments::fig4::run();
    let component_count = fig4.iphone.act.components().count();
    assert!(component_count >= 6, "only {component_count} components");
    let sum: act::units::MassCo2 = fig4.iphone.act.components().map(|c| c.footprint).sum();
    assert!((sum / fig4.iphone.act_total() - 1.0).abs() < 1e-12);
}

#[test]
fn carbon_and_ppa_optimization_disagree_in_every_case_study() {
    // The thesis of the paper: optimizing for carbon yields distinct
    // solutions from optimizing for performance/efficiency.
    let fig8 = act::experiments::fig8::run();
    assert_ne!(
        fig8.winner(OptimizationMetric::Edp).soc.name,
        fig8.winner(OptimizationMetric::C2ep).soc.name,
        "mobile survey"
    );

    let fig12 = act::experiments::fig12::run();
    assert_ne!(
        fig12.optimum(OptimizationMetric::Edp),
        fig12.optimum(OptimizationMetric::Cep),
        "accelerator sweep"
    );

    let fig9 = act::experiments::fig9::run();
    assert_ne!(
        fig9.winner(OptimizationMetric::Ce2p),
        fig9.winner(OptimizationMetric::C2ep),
        "provisioning study"
    );
}

#[test]
fn embodied_dominates_modern_mobile_lifecycles() {
    // Figure 1: manufacturing grew from ~45% to ~79% of the iPhone's
    // life-cycle footprint over a decade.
    let fig1 = act::experiments::fig1::run();
    assert!(fig1.iphone11.manufacturing_share > 0.75);
    assert!(fig1.iphone3.manufacturing_share < 0.5);
}

#[test]
fn jevons_paradox_reproduces() {
    // Figure 13 (right): the newer node fits more compute into the same
    // budget and ends up with a *higher* footprint.
    let fig13 = act::experiments::fig13::run();
    for cap in [1.0, 2.0] {
        assert!(fig13.budget.newer_node_footprint_increase(cap) > 1.1, "cap {cap}");
    }
}
