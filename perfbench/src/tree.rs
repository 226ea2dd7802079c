//! Run-directory helpers: content hash of a directory tree and a plain
//! recursive copy.

use epc_journal::hash_hex;
use std::fs;
use std::path::{Path, PathBuf};

fn files_under(root: &Path, dir: &Path, out: &mut Vec<(String, PathBuf)>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("listing {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry
            .map_err(|e| format!("listing {}: {e}", dir.display()))?
            .path();
        if path.is_dir() {
            files_under(root, &path, out)?;
        } else {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("{}: {e}", path.display()))?
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, path));
        }
    }
    Ok(())
}

/// SHA-256 over the sorted `relative-path <tab> sha256-of-bytes` lines of
/// every file under `root`: equal hashes mean byte-identical trees.
pub fn tree_hash(root: &Path) -> Result<String, String> {
    let mut files = Vec::new();
    files_under(root, root, &mut files)?;
    files.sort();
    let mut listing = String::new();
    for (rel, path) in files {
        let bytes = fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        listing.push_str(&format!("{rel}\t{}\n", hash_hex(&bytes)));
    }
    Ok(hash_hex(listing.as_bytes()))
}

/// Bytes of every file under `root`.
pub fn tree_bytes(root: &Path) -> Result<u64, String> {
    let mut files = Vec::new();
    files_under(root, root, &mut files)?;
    files.iter().try_fold(0, |total, (_, path)| {
        let meta = fs::metadata(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        Ok(total + meta.len())
    })
}

/// Copies the tree under `from` to `to`.
pub fn copy_tree(from: &Path, to: &Path) -> Result<(), String> {
    let mut files = Vec::new();
    files_under(from, from, &mut files)?;
    fs::create_dir_all(to).map_err(|e| format!("creating {}: {e}", to.display()))?;
    for (rel, path) in files {
        let dest = to.join(rel);
        if let Some(parent) = dest.parent() {
            fs::create_dir_all(parent)
                .map_err(|e| format!("creating {}: {e}", parent.display()))?;
        }
        fs::copy(&path, &dest).map_err(|e| format!("copying {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Removes `dir` and everything under it; a missing directory is fine.
pub fn remove_tree(dir: &Path) -> Result<(), String> {
    match fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("removing {}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}
