//! Copies `crates/flstore/src` into `OUT_DIR/src` so that the mirror
//! package can compile it, applying on the way the fix-ups below.
//!
//! At the commit this benchmark was written against, `chariots-flstore`
//! does not compile: three errors, none of them a matter of behaviour.
//! The benchmark may not touch that crate, so it builds a corrected copy.
//! Each fix-up applies only where the faulty text is still present and
//! its marker absent; once the crate is fixed in place they all lapse
//! and the copy is the source, verbatim.

use std::fs;
use std::path::{Path, PathBuf};

struct FixUp {
    file: &'static str,
    /// The fix-up is skipped when the file already contains this.
    unless: &'static str,
    find: &'static str,
    replace: &'static str,
}

const FIX_UPS: [FixUp; 3] = [
    // E0599: `BufWriter::flush` is called without `Write` in scope.
    FixUp {
        file: "archive.rs",
        unless: "SeekFrom, Write}",
        find: "use std::io::{BufReader, BufWriter, Seek, SeekFrom};",
        replace: "use std::io::{BufReader, BufWriter, Seek, SeekFrom, Write};",
    },
    // E0277: `GroupState` derives `Debug` over a `MaintainerHandle`,
    // which has no `Debug`.
    FixUp {
        file: "node.rs",
        unless: "Debug for MaintainerHandle",
        find: "#[derive(Clone)]\npub struct MaintainerHandle {",
        replace: "impl std::fmt::Debug for MaintainerHandle {\n    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {\n        f.write_str(\"MaintainerHandle\")\n    }\n}\n\n#[derive(Clone)]\npub struct MaintainerHandle {",
    },
    // E0503: `self.resident_bytes` is updated while `seg` still borrows
    // `self`. The same statements, with the last use of `seg` first.
    FixUp {
        file: "segment.rs",
        unless: "let old = seg.slots[slot].replace(entry);",
        find: "        if let Some(old) = seg.slots[slot].replace(entry) {\n            self.resident_bytes -= old.record.body.len() as u64;\n        }\n        self.resident_bytes += body_bytes;\n        if was_empty {\n            seg.filled += 1;\n",
        replace: "        let old = seg.slots[slot].replace(entry);\n        if was_empty {\n            seg.filled += 1;\n        }\n        if let Some(old) = old {\n            self.resident_bytes -= old.record.body.len() as u64;\n        }\n        self.resident_bytes += body_bytes;\n        if was_empty {\n",
    },
];

fn copy_tree(from: &Path, to: &Path, relative: &Path) {
    fs::create_dir_all(to.join(relative)).expect("create directory under OUT_DIR");
    let mut entries: Vec<PathBuf> = fs::read_dir(from.join(relative))
        .unwrap_or_else(|e| panic!("{}: {e}", from.join(relative).display()))
        .map(|entry| entry.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        let name = relative.join(path.file_name().expect("entry has a name"));
        if path.is_dir() {
            copy_tree(from, to, &name);
            continue;
        }
        let mut text =
            fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for fix in FIX_UPS.iter().filter(|f| Path::new(f.file) == name) {
            if !text.contains(fix.unless) && text.contains(fix.find) {
                text = text.replacen(fix.find, fix.replace, 1);
            }
        }
        if name == Path::new("lib.rs") {
            // `include!` cannot carry inner doc comments and attributes.
            text = text
                .lines()
                .filter(|l| !l.starts_with("//!") && !l.starts_with("#!["))
                .collect::<Vec<_>>()
                .join("\n");
        }
        fs::write(to.join(&name), text).expect("write under OUT_DIR");
    }
}

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let source = manifest.join("../../../../flstore/src");
    let out = PathBuf::from(std::env::var("OUT_DIR").expect("set by cargo")).join("src");
    let _ = fs::remove_dir_all(&out);
    copy_tree(&source, &out, Path::new(""));
    println!("cargo:rerun-if-changed={}", source.display());
    println!("cargo:rerun-if-changed=build.rs");
}
