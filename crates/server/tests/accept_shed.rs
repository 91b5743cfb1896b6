//! A connection the server cannot register for shutdown is shed at accept,
//! not served: `Server::shutdown` could not reach its read half and would
//! wait for its client to hang up.
//!
//! Registering takes a second descriptor (`try_clone`), which fails only
//! when the process has none left. So the server runs in a child process,
//! this test binary again under `ulimit -n 64`, that fills its descriptor
//! table once the accept thread sleeps in `accept`. Linux reserves the next
//! connection's descriptor when `accept` starts waiting, so the connection
//! is accepted and only the clone fails.

#![cfg(target_os = "linux")]
#![allow(clippy::unwrap_used, reason = "test code may unwrap")]

use fourcycle_runtime::{RuntimeConfig, ShardedRuntime};
use fourcycle_server::{Server, ServerConfig};
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Set in the child's environment: serve instead of spawning.
const CHILD: &str = "FOURCYCLE_ACCEPT_SHED_CHILD";

#[test]
fn a_connection_that_cannot_be_registered_is_shed() {
    if std::env::var_os(CHILD).is_some() {
        serve_with_no_free_descriptors();
        return;
    }
    let mut child = Command::new("sh")
        .args([
            "-c",
            "ulimit -n 64 && exec \"$0\" --exact \"$1\" --nocapture",
        ])
        .arg(std::env::current_exe().unwrap())
        .arg("a_connection_that_cannot_be_registered_is_shed")
        .env(CHILD, "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    // Kept open until the child exits: it still prints its test result.
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    let addr = loop {
        line.clear();
        assert!(stdout.read_line(&mut line).unwrap() > 0, "child exited");
        if let Some(addr) = line.trim_end().strip_prefix("addr ") {
            break addr.to_string();
        }
    };

    let mut conn = TcpStream::connect(&addr).unwrap();
    conn.write_all(b"list\n").unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reply = [0u8; 64];
    let read = conn.read(&mut reply);
    // A connection closed with the command still unread is reset.
    let reset = matches!(&read, Err(e) if e.kind() == io::ErrorKind::ConnectionReset);
    let read = if reset { 0 } else { read.unwrap() };
    let served = String::from_utf8_lossy(&reply[..read]);
    assert_eq!(
        read, 0,
        "the unregistered connection was served: {served:?}"
    );

    // Closing the child's stdin lets it free its descriptors and shut its
    // server down while this connection stays open.
    drop(child.stdin.take());
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break Some(status);
        }
        if Instant::now() > deadline {
            child.kill().unwrap();
            child.wait().unwrap();
            break None;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    drop(conn);
    assert!(status.is_some_and(|s| s.success()), "child: {status:?}");
}

/// The child's half: a server in a process with no free descriptor, until
/// stdin closes.
fn serve_with_no_free_descriptors() {
    let runtime = ShardedRuntime::start(RuntimeConfig::new().shards(1));
    let server = Server::start(ServerConfig::new().addr("127.0.0.1:0"), runtime).unwrap();
    while !accept_thread_sleeps() {
        std::thread::yield_now();
    }
    let mut fillers = Vec::new();
    while let Ok(file) = File::open("/dev/null") {
        fillers.push(file);
    }
    println!("addr {}", server.local_addr());
    let _ = std::io::stdin().read(&mut [0u8; 1]);
    drop(fillers);
    server.shutdown();
}

/// Whether the server's accept thread is asleep. Before its first
/// connection the only place it sleeps is `accept`.
fn accept_thread_sleeps() -> bool {
    let tasks = std::fs::read_dir("/proc/self/task").unwrap();
    tasks
        .map(|task| task.unwrap().path().join("stat"))
        .any(|stat| {
            // `pid (comm) state ...`; the kernel cuts comm to 15 bytes.
            let stat = std::fs::read_to_string(stat).unwrap_or_default();
            let Some((head, tail)) = stat.split_once(") ") else {
                return false;
            };
            head.ends_with("(fourcycle-accep") && tail.starts_with('S')
        })
}
