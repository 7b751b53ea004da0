//! Regenerates the experiments of the paper's evaluation:
//! `all_figures [NAME…]` runs the named tables in the order given, and
//! every table when no name is given. `IQ_QUICK=1` for a fast smoke run.
use iq_bench::{figures, Config, Table};
use std::process::ExitCode;

/// A named table and the runner that regenerates it.
type Named = (&'static str, fn(&Config) -> Table);

const TABLES: [Named; 8] = [
    ("fig1", figures::fig1_fetch),
    ("va_sweep", figures::va_sweep),
    ("fig7", figures::fig7),
    ("fig8", figures::fig8),
    ("fig9", figures::fig9),
    ("fig10", figures::fig10),
    ("fig11", figures::fig11),
    ("fig12", figures::fig12),
];

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let mut run = Vec::new();
    for name in &names {
        match TABLES.iter().find(|(n, _)| n == name) {
            Some(&(_, table)) => run.push(table),
            None => {
                let known: Vec<&str> = TABLES.iter().map(|(n, _)| *n).collect();
                eprintln!("unknown table `{name}`; known: {}", known.join(" "));
                return ExitCode::from(2);
            }
        }
    }
    if names.is_empty() {
        run = TABLES.iter().map(|&(_, table)| table).collect();
    }
    let cfg = Config::from_env();
    for table in run {
        println!("{}", table(&cfg).render());
    }
    ExitCode::SUCCESS
}
