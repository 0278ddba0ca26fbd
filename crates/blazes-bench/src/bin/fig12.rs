//! Figure 12: ad reporting — log records processed over time, 5 ad servers,
//! under {Uncoordinated, Ordered, Independent Seal, Seal}.
//!
//! ```text
//! cargo run -p blazes-bench --release --bin fig12
//! ```

#![forbid(unsafe_code)]

use blazes_apps::adreport::StrategyKind;
use blazes_apps::workload::CampaignPlacement;
use blazes_bench::{adreport_line, render_line};

fn main() {
    let servers = 5;
    println!("# Figure 12: log records processed over time, {servers} ad servers");
    for (strategy, placement) in [
        (StrategyKind::Uncoordinated, CampaignPlacement::Spread),
        (StrategyKind::Ordered, CampaignPlacement::Spread),
        (StrategyKind::Sealed, CampaignPlacement::Independent),
        (StrategyKind::Sealed, CampaignPlacement::Spread),
    ] {
        let line = adreport_line(servers, strategy, placement, 1, 24);
        print!("{}", render_line(&line));
        println!();
    }
}
