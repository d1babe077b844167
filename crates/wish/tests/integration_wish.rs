//! Integration tests that drive the `wish` binary itself, the way Figure 9
//! scripts would: feed it a script file or stdin, observe stdout and the
//! exit status.

use std::io::Write;
use std::process::{Command, Stdio};

/// Path to the wish binary, which Cargo builds before this test.
fn wish_path() -> &'static str {
    env!("CARGO_BIN_EXE_wish")
}

/// The repository's calculator script (`scripts/calc.tcl`).
fn calc_script() -> String {
    let repo = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::read_to_string(repo.join("scripts/calc.tcl")).unwrap()
}

fn run_script(script: &str, args: &[&str]) -> (String, i32) {
    let dir = std::env::temp_dir().join(format!("rtk_wish_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join(format!("script_{:p}.tcl", script.as_ptr()));
    std::fs::write(&file, script).unwrap();
    let out = Command::new(wish_path())
        .arg("-f")
        .arg(&file)
        .args(args)
        .output()
        .expect("wish runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

#[test]
fn script_builds_interface_and_dumps_screen() {
    let (out, status) = run_script(
        "button .b -text {From Script} -command {}\n\
         pack append . .b {top}\n\
         update\n\
         puts [screendump]\n\
         exit 0\n",
        &[],
    );
    assert_eq!(status, 0);
    assert!(out.contains("From Script"), "{out}");
    assert!(out.contains('+'), "{out}");
}

#[test]
fn script_arguments_arrive_in_argv() {
    let (out, status) = run_script(
        "puts \"argc=$argc argv=$argv\"\nexit 0\n",
        &["alpha", "beta"],
    );
    assert_eq!(status, 0);
    assert!(out.contains("argc=2"), "{out}");
    assert!(out.contains("alpha beta"), "{out}");
}

#[test]
fn exit_status_propagates() {
    let (_, status) = run_script("exit 3\n", &[]);
    assert_eq!(status, 3);
}

#[test]
fn failing_script_reports_error_and_nonzero_exit() {
    let out = Command::new(wish_path())
        .arg("-f")
        .arg("/definitely/not/a/file.tcl")
        .output()
        .unwrap();
    assert_ne!(out.status.code(), Some(0));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("couldn't read"), "{err}");
}

#[test]
fn interactive_mode_evaluates_lines() {
    let mut child = Command::new(wish_path())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("wish starts");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"expr {6 * 7}\nset x {\nmulti line\n}\nllength $x\nexit 0\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("42"), "{stdout}");
    // The multi-line brace continuation evaluated as one command.
    assert!(stdout.contains('2'), "{stdout}");
}

#[test]
fn input_driver_commands_click_buttons() {
    let (out, status) = run_script(
        "set hits 0\n\
         button .b -text Target -command {incr hits}\n\
         pack append . .b {top}\n\
         update\n\
         pointer [expr {[winfo x .b] + 5}] [expr {[winfo y .b] + 5}]\n\
         click\n\
         click\n\
         puts \"hits=$hits\"\n\
         exit 0\n",
        &[],
    );
    assert_eq!(status, 0);
    assert!(out.contains("hits=2"), "{out}");
}

#[test]
fn canvas_drawing_from_script() {
    // The paper's Section 5 plan: "enhance wish with drawing commands for
    // shapes and text" — exercised through the shell.
    let (out, status) = run_script(
        "canvas .c -geometry 120x60\n\
         pack append . .c {top}\n\
         .c create rectangle 10 10 50 40 -fill red -tag box\n\
         .c create text 60 30 -text Drawn\n\
         update\n\
         puts [screendump]\n\
         puts bbox=[.c bbox box]\n\
         exit 0\n",
        &[],
    );
    assert_eq!(status, 0);
    assert!(out.contains("Drawn"), "{out}");
    assert!(out.contains("bbox=10 10 50 40"), "{out}");
}

#[test]
fn calculator_script_computes() {
    // scripts/calc.tcl driven through its buttons: 7 * 6 = 42.
    let calc = calc_script();
    let driver = "
        proc press {label} {
            foreach row {0 1 2 3} {
                foreach b [winfo children .row$row] {
                    if {[lindex [$b configure -text] 4] == $label} {
                        $b invoke
                        return
                    }
                }
            }
            error \"no key $label\"
        }
        update
        press 7
        press *
        press 6
        press =
        puts result=[.display get]
        exit 0
    ";
    let (out, status) = run_script(&format!("{calc}\n{driver}"), &[]);
    assert_eq!(status, 0, "{out}");
    assert!(out.contains("result=42"), "{out}");
}

#[test]
fn calculator_handles_division_and_clear() {
    let calc = calc_script();
    let driver = "
        key {9}; key {/}; key {2}; key {=}
        puts div=[.display get]
        key C
        puts clear=[.display get]
        exit 0
    ";
    let (out, status) = run_script(&format!("{calc}\n{driver}"), &[]);
    assert_eq!(status, 0, "{out}");
    assert!(out.contains("div=4"), "{out}"); // floor division, 1991 expr
    assert!(out.contains("clear=\n") || out.contains("clear="), "{out}");
}
