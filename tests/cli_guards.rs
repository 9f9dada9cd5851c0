//! Regression tests for the CLI's loud argument parsing and the
//! `--profile` exporter: a present-but-unparsable numeric flag must fail
//! with a diagnostic and exit 2 — never silently fall back to a default.

use std::process::Command;

fn rmlc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rmlc"))
}

#[test]
fn bad_numeric_flags_fail_loudly() {
    for flag in [
        "--gc-stress=1k",
        "--alloc-budget=ten",
        "--depth-limit=",
        "--seed=0x10",
    ] {
        let out = rmlc().args([flag, "-e", "1"]).output().unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "{flag} must exit 2, got {:?}",
            out.status
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("not a number"),
            "{flag} must name the parse failure, got: {err}"
        );
        // The diagnostic names the offending flag, not just "usage".
        let name = flag.split('=').next().unwrap();
        assert!(err.contains(name), "{flag}: diagnostic must cite {name}");
    }
}

#[test]
fn good_numeric_flags_still_parse() {
    let out = rmlc()
        .args(["--gc-stress=100", "--seed=7", "-e", "1 + 2"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{:?}", out.status);
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "3");
}

#[test]
fn profile_flag_writes_a_loadable_trace() {
    let dir = std::env::temp_dir().join(format!("rmlc-profile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.json");
    let out = rmlc()
        .args([
            &format!("--profile={}", path.display()),
            "--gc-stress=50",
            "--no-basis",
            "-e",
            "let fun loop (n) = if n = 0 then 0 else loop (n - 1) in loop 2000 end",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{:?}", out.status);
    let trace = std::fs::read_to_string(&path).unwrap();
    assert!(trace.starts_with("{\"traceEvents\":["));
    for needle in [
        "\"compile\"",
        "\"machine.run\"",
        "\"gc.pause\"",
        "\"ph\":\"B\"",
    ] {
        assert!(trace.contains(needle), "trace missing {needle}");
    }
    let note = String::from_utf8_lossy(&out.stderr);
    assert!(note.contains("trace events"), "stderr note: {note}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_flag_prints_the_unified_snapshot() {
    let out = rmlc()
        .args(["--metrics", "--no-basis", "-e", "1 + 2"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in ["== metrics ==", "compile:", "store:", "machine:", "gc:"] {
        assert!(stdout.contains(needle), "missing {needle} in: {stdout}");
    }
}

#[test]
fn profile_without_a_sink_flag_changes_nothing() {
    // Control: the same invocation minus --profile emits no trace note.
    let out = rmlc().args(["--no-basis", "-e", "1"]).output().unwrap();
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("trace events"), "unexpected: {err}");
}

#[test]
fn basis_prefixed_diagnostics_point_into_the_right_file() {
    // A type error on line 2 of the user's file is reported at line 2,
    // with or without the basis prepended.
    let dir = std::env::temp_dir().join(format!("rmlc-diag-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.rml");
    std::fs::write(&bad, "fun main () = 1\nval x = 1 + \"two\"\n").unwrap();
    let bad = bad.display().to_string();
    for basis in [&[][..], &["--no-basis"][..]] {
        let out = rmlc().args(basis).arg(&bad).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{:?}", out.status);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("--> {bad}:2:9")), "{basis:?}: {err}");
        assert!(err.contains("2 | val x = 1 + \"two\""), "{basis:?}: {err}");
    }
    // Under rg-, a program that uses the basis's `o` fails the full check
    // on `o` itself: the span is labelled as the basis, not the file.
    let uses_o = dir.join("uses_o.rml");
    std::fs::write(&uses_o, "fun main () = (o (fn x => x + 1, fn x => x)) 1\n").unwrap();
    let uses_o = uses_o.display().to_string();
    let out = rmlc()
        .args(["--strategy", "rg-", "--check-full", &uses_o])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{:?}", out.status);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--> <basis>:3:16"), "{err}");
    assert!(err.contains("fun o (f, g) = fn x => f (g x)"), "{err}");
    assert!(!err.contains(&uses_o), "{err}");
    std::fs::remove_dir_all(&dir).ok();
    // Fig. 1 reaches no basis function, so with the basis it fails on its
    // own `compose`, at the same place as without it.
    for basis in [&[][..], &["--no-basis"][..]] {
        let out = rmlc()
            .args(["--strategy", "rg-", "--check-full", "examples/fig1.rml"])
            .args(basis)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{:?}", out.status);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("--> examples/fig1.rml:10:22"),
            "{basis:?}: {err}"
        );
    }
}
