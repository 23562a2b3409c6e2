//! Fixture: the same reads, each capped with `Read::take`. Mentions of
//! `read_line` in comments and strings, a function that is merely named
//! like one, and test code must NOT be flagged.

use std::io::{self, BufRead, Read};

const LIMIT: u64 = 1 << 20;

/// Reads one line of at most `LIMIT` bytes (unlike `.read_line()`).
pub fn read_line(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> io::Result<usize> {
    io::Read::take(&mut *reader, LIMIT).read_until(b'\n', buf)
}

pub fn slurp(file: std::fs::File) -> io::Result<Vec<u8>> {
    let mut all = Vec::new();
    file.take(LIMIT).read_to_end(&mut all)?;
    let _label = "calling .read_to_string() in a string is fine";
    Ok(all)
}

pub fn replay(reader: impl BufRead) -> usize {
    reader.take(LIMIT).lines().count()
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_read_whole_files() {
        let _ = std::fs::read_to_string("Cargo.toml");
    }
}
