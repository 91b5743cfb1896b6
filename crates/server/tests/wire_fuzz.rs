//! Wire fuzzing: arbitrary byte lines on a raw socket never panic the
//! server or desync its framing. In a binary of its own, because its 64
//! servers would load the CPU under the timing-sensitive tests of
//! `server_roundtrip.rs`.

#![allow(
    clippy::unwrap_used,
    clippy::panic,
    reason = "test code may unwrap and panic"
)]

use fourcycle_runtime::{RuntimeConfig, ShardedRuntime};
use fourcycle_server::{Server, ServerConfig};
use fourcycle_service::response_extra_lines;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};

/// Reads one framed reply off a raw socket: the header line plus as many
/// continuation lines as it declares.
fn read_framed(reader: &mut impl BufRead) -> String {
    let mut text = String::new();
    assert!(
        reader.read_line(&mut text).unwrap() > 0,
        "closed before a reply"
    );
    let extra = response_extra_lines(&text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
    for _ in 0..extra {
        assert!(
            reader.read_line(&mut text).unwrap() > 0,
            "closed inside {text:?}"
        );
    }
    text
}

/// One line of 0–40 bytes, none of them `\n`: any bytes, only characters
/// of the command grammar, or those after a command word — so lines reach
/// the parser and not only the UTF-8 check.
fn wire_line() -> impl Strategy<Value = Vec<u8>> {
    const WORDS: [&str; 10] = [
        "create ",
        "drop ",
        "count ",
        "snapshot ",
        "list",
        "layered ",
        "general ",
        "stats",
        "metrics",
        "events",
    ];
    const GRAMMAR: &[u8] = b"gABCD0123456789+-:# \t\r";
    (0u8..3, 0..WORDS.len(), collection::vec(0u8..255, 0..41)).prop_map(|(shape, word, bytes)| {
        let mut line = match shape {
            2 => WORDS[word].as_bytes().to_vec(),
            _ => Vec::new(),
        };
        line.extend(bytes.into_iter().map(|b| match shape {
            0 if b >= b'\n' => b + 1,
            0 => b,
            _ => GRAMMAR[usize::from(b) % GRAMMAR.len()],
        }));
        line.truncate(40);
        line
    })
}

proptest! {
    /// Wire fuzzing: arbitrary lines never panic the server or desync its
    /// framing. Each line that is invalid UTF-8, or non-blank once its `#`
    /// comment is cut, gets exactly one framed reply; a trailing `list`
    /// still answers, and nothing follows it.
    #[test]
    fn arbitrary_lines_get_exactly_one_framed_reply_each(
        lines in collection::vec(wire_line(), 0..25)
    ) {
        let runtime = ShardedRuntime::start(RuntimeConfig::new().shards(1));
        let server = Server::start(ServerConfig::new(), runtime).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut sent = Vec::new();
        let mut owed = 0;
        for line in &lines {
            sent.extend_from_slice(line);
            sent.push(b'\n');
            owed += match std::str::from_utf8(line) {
                Ok(text) => usize::from(!text.split('#').next().unwrap_or("").trim().is_empty()),
                Err(_) => 1,
            };
        }
        sent.extend_from_slice(b"list\n");
        stream.write_all(&sent).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let mut replies = BufReader::new(stream);
        for _ in 0..owed {
            read_framed(&mut replies);
        }
        let last = read_framed(&mut replies);
        prop_assert!(
            last.starts_with("ok+") && last.lines().next().unwrap().ends_with(" graphs"),
            "{lines:?} ended with {last:?}"
        );
        let mut rest = String::new();
        prop_assert_eq!(replies.read_line(&mut rest).unwrap(), 0, "extra reply {:?}", rest);
        server.shutdown();
    }
}
