//! `report` prints the paper's tables deterministically: its stdout must
//! match the committed golden file byte for byte. A catalogue row whose
//! run or bound drifts shows up here as a table that moved. Regenerate
//! the file only for an intended change, with
//! `cargo run --release -p csp-bench --bin report > tests/golden/report.txt`.

use std::path::Path;
use std::process::Command;

#[test]
fn report_matches_its_golden_file() {
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .output()
        .expect("report runs");
    assert!(out.status.success(), "report failed: {out:?}");
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/report.txt");
    let want = std::fs::read_to_string(&golden).expect("golden report");
    let got = String::from_utf8(out.stdout).expect("report prints UTF-8");
    if let Some((i, (g, w))) = got
        .lines()
        .zip(want.lines())
        .enumerate()
        .find(|(_, (g, w))| g != w)
    {
        panic!("report line {} moved:\n  got:  {g}\n  want: {w}", i + 1);
    }
    assert_eq!(got, want, "report length moved");
}
