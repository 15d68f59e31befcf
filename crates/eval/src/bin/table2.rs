//! Table II: the machine catalogue used in the performance evaluation,
//! with the calibrated throughputs of this reproduction.
//!
//! Output: `results/table2.csv` and a markdown rendering.

use adaphet_eval::{parse_args, write_csv, AdaphetError, CsvTable};
use adaphet_scenarios::{Machine, Site};

fn main() -> Result<(), AdaphetError> {
    parse_args(&[])?;
    let rows = [
        ("S", Site::G5k, "Chetemi", "2x Xeon E5-2630 v4", "-", Machine::Chetemi),
        ("M", Site::G5k, "Chifflet", "2x Xeon E5-2680 v4", "2x GTX 1080", Machine::Chifflet),
        ("L", Site::G5k, "Chifflot", "2x Xeon Gold 6126", "2x Tesla P100", Machine::Chifflot),
        ("S", Site::SDumont, "B715", "2x Xeon E5-2695 v2", "-", Machine::SdCpu),
        ("M", Site::SDumont, "B715-GPU (1 GPU)", "2x Xeon E5-2695 v2", "1x K40", Machine::SdK40x1),
        ("L", Site::SDumont, "B715-GPU", "2x Xeon E5-2695 v2", "2x K40", Machine::SdK40x2),
    ];
    let mut csv = CsvTable::new(&[
        "class",
        "site",
        "machine",
        "cpu",
        "gpu",
        "cpu_cores",
        "cpu_gflops_per_core",
        "gpu_gflops",
        "nic_gbps",
        "peak_gflops",
    ]);
    println!("Table II — computational nodes (paper hardware, calibrated throughputs)\n");
    println!(
        "| class | site | machine | CPU | GPU | peak GFLOP/s | NIC Gb/s |\n|---|---|---|---|---|---|---|"
    );
    for (class, site, name, cpu, gpu, m) in rows {
        let s = m.spec();
        println!(
            "| {class} | {} | {name} | {cpu} | {gpu} | {:.0} | {} |",
            site.name(),
            s.peak_gflops(),
            s.nic_gbps
        );
        csv.push(vec![
            class.to_string(),
            site.name().to_string(),
            name.to_string(),
            cpu.to_string(),
            gpu.to_string(),
            s.cpu_cores.to_string(),
            format!("{}", s.cpu_gflops_per_core),
            format!("{}", s.gpu_gflops),
            format!("{}", s.nic_gbps),
            format!("{:.0}", s.peak_gflops()),
        ]);
    }
    println!(
        "\nnetworks: G5K backbone {} Gb/s, SD fabric {} Gb/s",
        Site::G5k.network().backbone_gbps,
        Site::SDumont.network().backbone_gbps
    );
    let path = write_csv("table2", &csv).map_err(|e| AdaphetError::io("results/table2.csv", e))?;
    println!("wrote {}", path.display());
    Ok(())
}
