//! `repro` — regenerates every table and figure of the Anole paper.
//!
//! Usage:
//!
//! ```text
//! repro [--scale paper|small] [--seed N] [--only fig3,fig8,tab3,...] [--ablations]
//! ```
//!
//! With no `--only`, all tables and figures are regenerated in paper order.
//! `--only` also selects among the `--ablations` runners by id (for example
//! `--ablations --only ext:lifecycle` prints the fleet week alone).
//! Run with `--release` for the paper scale.

use std::process::ExitCode;

use anole_bench::{experiments, Context, Scale};
use anole_tensor::Seed;

struct Args {
    scale: Scale,
    seed: Seed,
    only: Option<Vec<String>>,
    ablations: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scale: Scale::Paper,
        seed: Seed::default(),
        only: None,
        ablations: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                args.scale = match iter.next().as_deref() {
                    Some("paper") => Scale::Paper,
                    Some("small") => Scale::Small,
                    other => return Err(format!("unknown scale {other:?}")),
                }
            }
            "--seed" => {
                let v = iter
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse::<u64>()
                    .map_err(|e| format!("bad seed: {e}"))?;
                args.seed = Seed(v);
            }
            "--only" => {
                let list = iter.next().ok_or("--only needs a list")?;
                args.only = Some(list.split(',').map(|s| s.trim().to_string()).collect());
            }
            "--ablations" => args.ablations = true,
            "--help" | "-h" => {
                println!(
                    "repro: regenerate the Anole paper's tables and figures\n\
                     options: --scale paper|small, --seed N, --only <ids>, --ablations\n\
                     ids: tab1 tab2 tab3 tab4 fig3 fig4a fig4b fig5 fig6 fig7a fig7b fig8 fig10 fig11\n\
                     --ablations adds: ablation:cache-policy ablation:delta ablation:theta\n\
                     ablation:latency-budget ext:realtime ext:lifecycle ablation:repository-size\n\
                     ablation:offload (--only selects among these too)"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn wanted(only: &Option<Vec<String>>, id: &str) -> bool {
    match only {
        None => true,
        Some(list) => list.iter().any(|x| x == id),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Context-free artifacts first (instant).
    if wanted(&args.only, "tab1") {
        println!("{}", experiments::tab1());
    }
    if wanted(&args.only, "tab4") {
        println!("{}", experiments::tab4());
    }
    if wanted(&args.only, "fig11") {
        println!("{}", experiments::fig11());
    }

    type Runner = fn(&Context) -> String;
    let ablations: [(&str, Runner); 8] = [
        ("ablation:cache-policy", experiments::cache_policy_ablation as Runner),
        ("ablation:delta", experiments::delta_sweep_ablation),
        ("ablation:theta", experiments::theta_sweep_ablation),
        ("ablation:latency-budget", experiments::latency_budget_sweep),
        ("ext:realtime", experiments::realtime_streaming),
        ("ext:lifecycle", experiments::fleet_lifecycle_week),
        ("ablation:repository-size", experiments::repository_size_sweep),
        ("ablation:offload", experiments::offload_ablation),
    ];
    let ablation_wanted = |id: &str| args.ablations && wanted(&args.only, id);
    let needs_ctx = ["tab2", "tab3", "fig3", "fig4a", "fig4b", "fig5", "fig6", "fig7a", "fig7b", "fig8", "fig10"]
        .iter()
        .any(|id| wanted(&args.only, id))
        || ablations.iter().any(|(id, _)| ablation_wanted(id));
    if !needs_ctx {
        return ExitCode::SUCCESS;
    }

    eprintln!(
        "[repro] building context at {:?} scale, {} …",
        args.scale, args.seed
    );
    let start = std::time::Instant::now();
    let ctx = match Context::build(args.scale, args.seed) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: training failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "[repro] trained {} compressed models over {} frames in {:.1}s",
        ctx.system.repository().len(),
        ctx.dataset.frame_count(),
        start.elapsed().as_secs_f32()
    );

    let runners: [(&str, Runner); 11] = [
        ("fig3", experiments::fig3 as Runner),
        ("fig4a", experiments::fig4a),
        ("fig4b", experiments::fig4b),
        ("fig5", experiments::fig5),
        ("fig6", experiments::fig6),
        ("fig7a", experiments::fig7a),
        ("fig7b", experiments::fig7b),
        ("fig8", experiments::fig8),
        ("tab2", experiments::tab2),
        ("tab3", experiments::tab3),
        ("fig10", experiments::fig10),
    ];
    for (id, run) in runners {
        if wanted(&args.only, id) {
            let t = std::time::Instant::now();
            println!("{}", run(&ctx));
            eprintln!("[repro] {id} done in {:.1}s", t.elapsed().as_secs_f32());
        }
    }

    for (id, run) in ablations {
        if ablation_wanted(id) {
            let t = std::time::Instant::now();
            println!("{}", run(&ctx));
            eprintln!("[repro] {id} done in {:.1}s", t.elapsed().as_secs_f32());
        }
    }

    ExitCode::SUCCESS
}
