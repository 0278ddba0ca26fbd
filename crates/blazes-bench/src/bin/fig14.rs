//! Figure 14: the two seal-based strategies vs the uncoordinated baseline,
//! 10 ad servers (ordering omitted, as in the paper). The non-independent
//! "Seal" line shows the step shape of unanimous-vote releases.
//!
//! ```text
//! cargo run -p blazes-bench --release --bin fig14
//! ```

#![forbid(unsafe_code)]

use blazes_apps::adreport::StrategyKind;
use blazes_apps::workload::CampaignPlacement;
use blazes_bench::{adreport_line, render_line};

fn main() {
    let servers = 10;
    println!("# Figure 14: seal strategies, {servers} ad servers");
    for (strategy, placement) in [
        (StrategyKind::Uncoordinated, CampaignPlacement::Spread),
        (StrategyKind::Sealed, CampaignPlacement::Independent),
        (StrategyKind::Sealed, CampaignPlacement::Spread),
    ] {
        let line = adreport_line(servers, strategy, placement, 1, 24);
        print!("{}", render_line(&line));
        println!();
    }
}
