//! Bottom-up device carbon accounting: tear down real products into their
//! ICs and compare ACT's estimate against the published top-down LCA
//! numbers (paper Figure 4 and Table 12).
//!
//! ```text
//! cargo run --example device_footprint
//! ```

use act::core::{ComponentKind, FabScenario};
use act::data::{reports, scenarios};
use act::lca::{table12, top_down_ic_estimate, EioLca};
use act::scenario::Scenario;

fn main() {
    let fab = FabScenario::default();

    for (doc, report) in
        [(scenarios::IPHONE_11, &reports::IPHONE_11), (scenarios::IPAD, &reports::IPAD)]
    {
        let device = Scenario::parse(doc)
            .and_then(|scenario| scenario.compile())
            .expect("committed device documents compile");
        let act = device.embodied();
        println!("{} — ACT bottom-up estimate:", device.name());
        for component in act.components() {
            println!("  {:7.2} kg  {}", component.footprint.as_kilograms(), component.label);
        }
        for kind in ComponentKind::ALL {
            let share = act.by_kind(kind) / act.total();
            if share > 0.0 {
                println!("    {:<10} {:>5.1}%", kind.to_string(), share * 100.0);
            }
        }
        println!(
            "  total {:.1} kg vs top-down LCA {:.1} kg\n",
            act.total().as_kilograms(),
            top_down_ic_estimate(report).as_kilograms()
        );
    }

    // Why cost-based LCAs can't guide design:
    let eio = EioLca::semiconductor_sector();
    println!(
        "EIO-LCA would charge a $450 phone board {:.0} kg regardless of its silicon.\n",
        eio.estimate(450.0).as_kilograms()
    );

    // Table 12: node assumptions matter more than anything else.
    println!("Legacy-node LCA vs ACT at the shipping node:");
    for row in table12(&fab) {
        println!(
            "  {:<12} {:<14} LCA {:>8.2} kg | ACT(modern) {:>7.2} kg | overestimate {:>5.1}x",
            row.row.device,
            row.row.category,
            row.row.lca_kg,
            row.ours_node2.as_kilograms(),
            row.lca_overestimate()
        );
    }
}
