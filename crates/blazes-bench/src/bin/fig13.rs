//! Figure 13: ad reporting — log records processed over time, 10 ad
//! servers. Doubling the producers barely moves the uncoordinated and
//! sealed runs but slows the ordered run dramatically.
//!
//! ```text
//! cargo run -p blazes-bench --release --bin fig13
//! ```

#![forbid(unsafe_code)]

use blazes_apps::adreport::StrategyKind;
use blazes_apps::workload::CampaignPlacement;
use blazes_bench::{adreport_line, render_line};

fn main() {
    let servers = 10;
    println!("# Figure 13: log records processed over time, {servers} ad servers");
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
