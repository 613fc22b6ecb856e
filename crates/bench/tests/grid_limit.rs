//! A manifest whose grid is past the cell limit, or whose cells and
//! seeds are past the run limit, is refused with exit code 2 and a
//! message naming its count, by `mmm-campaign` and by `mmm-inspect
//! campaign`, instead of aborting on the allocation.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use mmm_bench::campaign::{run_campaign, CampaignOptions, Manifest};

/// A manifest with `axes` grid axes of `values` values each.
fn wide_manifest(axes: usize, values: usize) -> String {
    let axis = [
        ("cores", "4"),
        ("pab_entries", "64"),
        ("pab_serial_latency", "4"),
        ("fault_rate", "0"),
        ("switch_interval", "4"),
        ("pab_lookup", "\"serial\""),
    ];
    let grid: Vec<String> = axis[..axes]
        .iter()
        .map(|(name, value)| format!("\"{name}\":[{}]", vec![*value; values].join(",")))
        .collect();
    format!("{{\"name\":\"wide\",\"grid\":{{{}}}}}", grid.join(","))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmm-grid-limit-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Exit code and standard error of `bin` run on `args`.
fn run(bin: &str, args: &[&Path]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A one-cell manifest with a trillion seeds.
const MANY_SEEDS: &str = r#"{"name":"many","seeds":1000000000000,"grid":{"cores":4}}"#;

/// Four 400-value axes (25.6 G cells), six 3000-value axes (a count
/// past `usize::MAX`), and one cell with a trillion seeds: each
/// oversized manifest and the count its refusal names.
fn oversized() -> [(String, &'static str); 3] {
    [
        (wide_manifest(4, 400), "25600000000 cells"),
        (
            wide_manifest(6, 3000),
            "more than 18446744073709551615 cells",
        ),
        (MANY_SEEDS.to_string(), "1000000000000 runs"),
    ]
}

#[test]
fn mmm_campaign_refuses_oversized_grids() {
    let dir = temp_dir("campaign");
    for (i, (manifest, count)) in oversized().into_iter().enumerate() {
        let path = dir.join(format!("oversized-{i}.json"));
        fs::write(&path, manifest).unwrap();
        let out = dir.join(format!("out-{i}"));
        let (code, err) = run(
            env!("CARGO_BIN_EXE_mmm-campaign"),
            &[&path, "--out".as_ref(), &out],
        );
        assert_eq!(code, Some(2), "{err}");
        assert!(err.contains(count), "{err}");
        assert!(!out.exists(), "nothing is written for a refused grid");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn mmm_inspect_refuses_a_campaign_with_an_oversized_manifest() {
    // A real one-cell campaign, whose manifest is then swapped for an
    // oversized one.
    let dir = temp_dir("inspect");
    let manifest =
        r#"{"name":"one","warmup":200,"measure":1000,"grid":{"cores":4,"workload":"nodmr"}}"#;
    let m = Manifest::parse(manifest).unwrap();
    let opts = CampaignOptions {
        threads: 1,
        limit: None,
        quiet: true,
    };
    let aggregate = run_campaign(&m, &dir, &opts).unwrap().aggregate_path;
    let inspect = env!("CARGO_BIN_EXE_mmm-inspect");
    let (code, err) = run(inspect, &["campaign".as_ref(), &aggregate, &aggregate]);
    assert_eq!(code, Some(0), "the campaign as written passes: {err}");
    for (manifest, count) in oversized() {
        fs::write(dir.join("manifest.json"), manifest).unwrap();
        let (code, err) = run(inspect, &["campaign".as_ref(), &aggregate, &aggregate]);
        assert_eq!(code, Some(2), "{err}");
        assert!(err.contains(count), "{err}");
    }
    let _ = fs::remove_dir_all(&dir);
}
