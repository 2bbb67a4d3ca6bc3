//! Byte-exact goldens of what `futil` prints from its registries: the six
//! `--list-*` listings, the serve `{"list": …}` response of each kind, and
//! the error for an unknown frontend, backend, pass, lint and state.
//!
//! The other suites only check that these outputs *contain* the registry's
//! strings, which a change to how listings and lookup errors are produced
//! could satisfy while moving bytes. Each file under `tests/golden/`
//! describes itself: line 1 is the command (`$ futil ARGS…`, optionally
//! ` < STDIN-LINE`), the rest is what it printed (stdout, then stderr) when
//! run from the repository root. `scripts/goldens.sh` writes them from any
//! `futil` binary — committed ones come from the parent of the commit that
//! touched them.

use std::io::Write;
use std::path::Path;
use std::process::{Command, Stdio};

#[test]
fn registry_outputs_match_the_goldens_byte_for_byte() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut goldens: Vec<_> = std::fs::read_dir(root.join("crates/bench/tests/golden"))
        .expect("golden directory")
        .map(|entry| entry.expect("directory entry").path())
        .collect();
    goldens.sort();
    assert_eq!(goldens.len(), 15, "a golden went missing or was added");
    for path in goldens {
        let golden = std::fs::read_to_string(&path).expect("golden reads");
        let (command, expected) = golden.split_once('\n').expect("a command line");
        let invocation = command
            .strip_prefix("$ futil ")
            .unwrap_or_else(|| panic!("{}: line 1 is not `$ futil …`", path.display()));
        let (args, input) = match invocation.split_once(" < ") {
            Some((args, line)) => (args, format!("{line}\n")),
            None => (invocation, String::new()),
        };
        let mut child = Command::new(env!("CARGO_BIN_EXE_futil"))
            .args(args.split(' '))
            .current_dir(&root)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("futil spawns");
        let mut stdin = child.stdin.take().expect("piped stdin");
        stdin.write_all(input.as_bytes()).expect("stdin writes");
        drop(stdin);
        let out = child.wait_with_output().expect("futil exits");
        let printed = [out.stdout, out.stderr].concat();
        assert_eq!(
            String::from_utf8_lossy(&printed),
            expected,
            "`{command}` no longer prints {}",
            path.display()
        );
    }
}
