//! Writes application graphs from the `sdf-apps` registry to
//! `examples/graphs/*.sdf` text files — the corpus the regression
//! sentinel (`engine_sweep --baseline/--gate`) runs over — and the
//! registered multi-mode scenario graphs to `*.sdfm` files (the
//! `sdfmem modes` examples; the distinct extension keeps them out of
//! the single-graph sentinel corpus).
//!
//! ```text
//! cargo run --release --bin export_graphs -- [--dir DIR] [NAME...]
//! ```
//!
//! With no names, exports the default corpus selection.

/// The default corpus: a spread of Table 1 shapes — the satellite
/// receiver, shallow and deep QMF filterbanks, the 16-QAM modem — plus
/// one large synthetic system so the regression sentinel exercises the
/// dense DP kernel and sweep WIG at scale.
const DEFAULT_CORPUS: &[&str] = &[
    "satrec",
    "qmf23_2d",
    "qmf12_2d",
    "16qamModem",
    "scale_chain_128",
    "modem_acq_track",
    "codec_ip",
];

/// Table 1 names resolve through the registry; `scale_*` names fall back
/// to the deterministic scale generators.
fn by_name(name: &str) -> Option<sdf_core::SdfGraph> {
    sdf_apps::registry::by_name(name).or_else(|| sdf_apps::scale::by_name(name))
}

fn real_main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut dir = "examples/graphs".to_string();
    let mut names: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--dir" => {
                dir = it
                    .next()
                    .cloned()
                    .ok_or("missing --dir value".to_string())?;
            }
            name => names.push(name.to_string()),
        }
    }
    if names.is_empty() {
        names = DEFAULT_CORPUS.iter().map(|n| n.to_string()).collect();
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    for name in &names {
        if let Some(mg) = sdf_apps::modes::mode_graph_by_name(name) {
            let path = format!("{dir}/{}.sdfm", mg.name());
            std::fs::write(&path, sdf_core::mode::to_mode_text(&mg))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!(
                "wrote {path} ({} modes, {} persistent)",
                mg.modes().len(),
                mg.persistent().len()
            );
            continue;
        }
        let graph = by_name(name).ok_or_else(|| format!("unknown registry graph `{name}`"))?;
        let path = format!("{dir}/{}.sdf", graph.name());
        std::fs::write(&path, sdf_core::io::to_text(&graph))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!(
            "wrote {path} ({} actors, {} edges)",
            graph.actor_count(),
            graph.edge_count()
        );
    }
    Ok(())
}

fn main() {
    if let Err(message) = real_main() {
        eprintln!("error: {message}");
        std::process::exit(2);
    }
}
