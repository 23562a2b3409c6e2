//! Fixture: service code reading lines and whole streams with no length
//! limit. Each line expected to fire carries a trailing hit marker.

use std::io::{BufRead, Read};

pub fn greet(reader: &mut impl BufRead) -> std::io::Result<String> {
    let mut line = String::new();
    reader.read_line(&mut line)?; // HIT
    Ok(line)
}

pub fn frame(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> std::io::Result<usize> {
    // A `take` in an earlier statement does not bound this one.
    let _unrelated = [1, 2, 3].iter().take(2).count();
    reader.read_until(b'\n', buf) // HIT
}

pub fn replay(reader: impl BufRead) -> usize {
    reader.lines().count() // HIT
}

pub fn slurp(mut file: std::fs::File) -> std::io::Result<Vec<u8>> {
    let mut all = Vec::new();
    file.read_to_end(&mut all)?; // HIT
    Ok(all)
}

pub fn config(path: &std::path::Path) -> std::io::Result<String> {
    std::fs::read_to_string(path) // HIT
}
