//! Regenerates the paper's figures and tables as text.
//!
//! ```text
//! cargo run --release -p veltair-core --bin veltair-figures           # everything
//! cargo run --release -p veltair-core --bin veltair-figures fig06 fig12
//! VELTAIR_QUERIES=2000 cargo run --release -p veltair-core --bin veltair-figures fig03
//! ```
//!
//! Each figure prints the same rows/series the paper reports.

use veltair_core::experiments::{
    ablations, fig01, fig02, fig03, fig04, fig05, fig06, fig07, fig09, fig10, fig11, fig12, fig13,
    fig14, tables, ExpContext,
};

/// All runnable experiment names in paper order.
const ALL: &[&str] = &[
    "tab01",
    "tab02",
    "fig01",
    "fig02",
    "fig03",
    "fig04",
    "fig05",
    "fig06",
    "fig07",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "ablations",
];

fn run_one(ctx: &ExpContext, name: &str) {
    println!("==================================================================");
    match name {
        "tab01" => println!("{}", tables::table1()),
        "tab02" => println!("{}", tables::format_table2(&tables::table2(ctx))),
        "fig01" => println!("{}", fig01::run(ctx)),
        "fig02" => println!("{}", fig02::run(ctx)),
        "fig03" => println!("{}", fig03::run(ctx)),
        "fig04" => println!("{}", fig04::run(ctx)),
        "fig05" => println!("{}", fig05::run(ctx, None)),
        "fig06" => println!("{}", fig06::run(ctx)),
        "fig07" => println!("{}", fig07::run(ctx)),
        "fig09" => println!("{}", fig09::run(ctx)),
        "fig10" => println!("{}", fig10::run(ctx)),
        "fig11" => println!("{}", fig11::run(ctx)),
        "fig12" => {
            let fig = fig12::run(ctx);
            println!("{fig}");
            let light = ["efficientnet_b0", "mobilenet_v2", "tiny_yolo_v2"];
            let medium = ["resnet50", "googlenet"];
            let heavy = ["ssd_resnet34", "bert_large"];
            println!(
                "FULL improvement vs Planaria: light {:+.0}%, medium {:+.0}%, heavy {:+.0}%, mix {:+.0}%",
                fig.mean_improvement("Veltair-FULL", &light) * 100.0,
                fig.mean_improvement("Veltair-FULL", &medium) * 100.0,
                fig.mean_improvement("Veltair-FULL", &heavy) * 100.0,
                fig.mean_improvement("Veltair-FULL", &["Mix"]) * 100.0,
            );
        }
        "fig13" => println!("{}", fig13::run(ctx, None)),
        "fig14" => println!("{}", fig14::run(ctx)),
        "ablations" => println!("{}", ablations::run(ctx)),
        other => {
            eprintln!("unknown experiment '{other}'; available: {}", ALL.join(" "));
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = ExpContext::new();
    let selected: Vec<&str> = if args.is_empty() {
        ALL.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    for name in selected {
        run_one(&ctx, name);
    }
}
