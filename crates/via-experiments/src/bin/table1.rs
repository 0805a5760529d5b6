//! Table 1: dataset summary (calls, users, ASes, countries) plus the §2.1
//! composition statistics (international / inter-AS / wireless fractions).

// Experiment driver: aborting with the underlying error is the right
// response to a broken fixture or output path — no caller to recover.
#![allow(clippy::unwrap_used, clippy::expect_used, reason = "fail-fast binary")]

use via_experiments::{build_env, header, pct, row, write_json, Args};
use via_trace::analysis::dataset_summary;

fn main() {
    let args = Args::parse();
    let env = build_env(args);
    let s = dataset_summary(&env.trace);

    println!("# Table 1: dataset summary\n");
    header(&["statistic", "synthetic trace", "paper"]);
    row(&["calls".into(), s.calls.to_string(), "430M".into()]);
    row(&["users".into(), s.users.to_string(), "135M".into()]);
    row(&["ASes".into(), s.ases.to_string(), "1.9K".into()]);
    row(&[
        "countries/regions".into(),
        s.countries.to_string(),
        "126".into(),
    ]);
    row(&["days".into(), s.days.to_string(), "197".into()]);
    row(&[
        "international".into(),
        pct(s.international_fraction),
        "46.6%".into(),
    ]);
    row(&["inter-AS".into(), pct(s.inter_as_fraction), "80.7%".into()]);
    row(&["wireless".into(), pct(s.wireless_fraction), "83%".into()]);

    let path = write_json("table1", &s);
    println!("\nWrote {}", path.display());
}
