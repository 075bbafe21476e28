//! Integration tests for the `magneto` CLI binary: the pretrain →
//! inspect → infer → learn → infer round trip through real process
//! invocations and on-disk bundle storage.

use std::path::{Path, PathBuf};
use std::process::Command;

fn magneto() -> Command {
    Command::new(env!("CARGO_BIN_EXE_magneto"))
}

/// A bundle path inside a fresh directory of its own, so a test can see
/// every file the CLI leaves beside the bundle.
fn temp_bundle(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("magneto_cli_test_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir.join("device.mag")
}

/// File names in the bundle's directory.
fn files_beside(bundle: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(bundle.parent().unwrap())
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

fn run(cmd: &mut Command) -> (bool, String) {
    let out = cmd.output().expect("spawn magneto");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

#[test]
fn full_cli_lifecycle() {
    let bundle = temp_bundle("lifecycle");

    // pretrain (tiny + fast so the test stays quick)
    let (ok, text) = run(magneto()
        .args(["pretrain", "--out"])
        .arg(&bundle)
        .args(["--fast", "--windows-per-class", "16", "--epochs", "6"]));
    assert!(ok, "pretrain failed:\n{text}");
    assert!(text.contains("< 5 MB: true"), "{text}");
    assert!(bundle.exists());
    // The served kernel plan: host defaults with the detected backend.
    let banner = format!("[compute] backend={} ", magneto::tensor::Backend::detect());
    assert!(text.contains(&banner), "expected `{banner}` in:\n{text}");

    // inspect
    let (ok, text) = run(magneto().arg("inspect").arg(&bundle));
    assert!(ok, "inspect failed:\n{text}");
    assert!(text.contains("drive") && text.contains("walk"), "{text}");
    assert!(text.contains("support set"), "{text}");
    assert!(text.contains("version        : v1 (root)"), "{text}");

    // infer a known activity
    let (ok, text) = run(magneto()
        .arg("infer")
        .arg(&bundle)
        .args(["--activity", "still", "--seconds", "3"]));
    assert!(ok, "infer failed:\n{text}");
    assert!(text.contains("activity timeline"), "{text}");
    assert!(text.contains("uplink 0 B"), "{text}");

    // learn a new activity, writing back to the same bundle
    let (ok, text) = run(magneto()
        .arg("learn")
        .arg(&bundle)
        .args(["--label", "gesture_hi", "--activity", "gesture_hi", "--seconds", "15"]));
    assert!(ok, "learn failed:\n{text}");
    assert!(text.contains("gesture_hi"), "{text}");

    // the updated bundle knows 6 classes and can infer the new one
    let (ok, text) = run(magneto().arg("inspect").arg(&bundle));
    assert!(ok);
    assert!(text.contains("gesture_hi"), "{text}");

    // Pretrain, infer and learn leave nothing but the bundle behind: no
    // kernel-plan cache, no journal, no scratch file.
    assert_eq!(files_beside(&bundle), ["device.mag"]);
    std::fs::remove_dir_all(bundle.parent().unwrap()).ok();
}

#[test]
fn cli_rejects_bad_usage() {
    // No args -> usage, non-zero exit.
    let (ok, text) = run(&mut magneto());
    assert!(!ok);
    assert!(text.contains("usage"), "{text}");

    // Unknown subcommand.
    let (ok, _) = run(magneto().arg("frobnicate"));
    assert!(!ok);

    // Missing required flag.
    let (ok, text) = run(magneto().arg("pretrain"));
    assert!(!ok);
    assert!(text.contains("--out"), "{text}");

    // Inspecting a missing bundle.
    let (ok, text) = run(magneto().args(["inspect", "/nonexistent/x.mag"]));
    assert!(!ok);
    assert!(text.contains("error"), "{text}");

    // Inspecting a file in the pre-versioning `MGST` storage frame: a
    // clean refusal, not a panic.
    let old = temp_bundle("mgst");
    let payload = b"MGBD\x01\x00\x00\x00\x00";
    let mut frame = "MGST".as_bytes().to_vec();
    frame.extend_from_slice(&magneto::core::storage::crc32(payload).to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    std::fs::write(&old, frame).unwrap();
    let (ok, text) = run(magneto().arg("inspect").arg(&old));
    assert!(!ok);
    assert!(text.contains("error") && text.contains("not a MAGNETO storage file"), "{text}");
    assert!(!text.contains("panicked"), "{text}");
    std::fs::remove_dir_all(old.parent().unwrap()).ok();

    // Unknown activity name.
    let bundle = temp_bundle("badusage");
    let (ok, _) = run(magneto()
        .args(["pretrain", "--out"])
        .arg(&bundle)
        .args(["--fast", "--windows-per-class", "8", "--epochs", "2"]));
    assert!(ok);
    let (ok, text) = run(magneto()
        .arg("infer")
        .arg(&bundle)
        .args(["--activity", "yoga"]));
    assert!(!ok);
    assert!(text.contains("unknown activity"), "{text}");
    std::fs::remove_dir_all(bundle.parent().unwrap()).ok();
}
