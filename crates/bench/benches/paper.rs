//! Prints the paper's results: every entry of
//! `stayaway_bench::figures::ALL`, or only the ids named after `--`.
//!
//! ```sh
//! cargo bench -p stayaway-bench --bench paper
//! cargo bench -p stayaway-bench --bench paper -- fig08_vlc_cpubomb_qos claim_2d_stress
//! ```

use stayaway_bench::figures::ALL;

fn main() {
    // Cargo passes `--bench` to every bench target; it names no result.
    let ids: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--bench")
        .collect();
    if let Some(unknown) = ids
        .iter()
        .find(|id| ALL.iter().all(|(known, _)| known != id))
    {
        let known = ALL.map(|(id, _)| id).join(", ");
        eprintln!("paper: no result `{unknown}` (known: {known})");
        std::process::exit(2);
    }
    for (id, print) in ALL {
        if ids.is_empty() || ids.iter().any(|wanted| wanted == id) {
            print();
        }
    }
}
