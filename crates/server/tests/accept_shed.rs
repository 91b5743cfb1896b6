//! What the accept thread does when the process runs out of descriptors.
//!
//! * A connection the server cannot register for shutdown is shed at
//!   accept, not served: `Server::shutdown` could not reach its read half
//!   and would wait for its client to hang up. Registering takes a second
//!   descriptor (`try_clone`), which fails only when the process has none
//!   left.
//! * While `accept` itself fails for want of a descriptor, the accept
//!   thread pauses between attempts instead of spinning, and a connection
//!   left pending meanwhile is served once descriptors are free again.
//!
//! So each server runs in a child process, this test binary again under
//! `ulimit -n 64`, that fills its descriptor table once the accept thread
//! sleeps in `accept`. Linux reserves the next connection's descriptor when
//! `accept` starts waiting, so that connection is accepted; the failures
//! come after it.

#![cfg(target_os = "linux")]
#![allow(
    clippy::unwrap_used,
    clippy::panic,
    reason = "test code may unwrap and panic"
)]

use fourcycle_runtime::{RuntimeConfig, ShardedRuntime};
use fourcycle_server::{Server, ServerConfig};
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Set in the child's environment: serve instead of spawning.
const CHILD: &str = "FOURCYCLE_ACCEPT_SHED_CHILD";

/// Longest the parent waits for a tagged line from its child.
const TAG_WAIT: Duration = Duration::from_secs(30);

/// Longest the accept thread may run, in clock ticks of 10 ms, over a
/// one-second window in which every `accept` fails: a tenth of the window.
const MAX_ACCEPT_TICKS: u64 = 10;

/// Re-runs this binary's test `name` in a child under `ulimit -n 64`, with
/// piped stdin and stdout.
fn spawn_child(name: &str) -> Child {
    Command::new("sh")
        .args([
            "-c",
            "ulimit -n 64 && exec \"$0\" --exact \"$1\" --nocapture",
        ])
        .arg(std::env::current_exe().unwrap())
        .arg(name)
        .env(CHILD, "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap()
}

/// The child's stdout, line by line, read on a thread of its own so that
/// a wait for a line can time out. The thread reads until the child exits,
/// which keeps the pipe open while the child prints its test result.
fn stdout_lines(child: &mut Child) -> Receiver<String> {
    let stdout = BufReader::new(child.stdout.take().unwrap());
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for line in stdout.lines().map_while(Result::ok) {
            let _ = tx.send(line);
        }
    });
    rx
}

/// Waits up to [`TAG_WAIT`] for a line of the child's that holds `tag`, and
/// returns what follows the tag. The tag need not start the line: when the
/// test process may use only one CPU, libtest prints `test <name> ... `
/// ahead of the child's own output on the same line.
fn read_tagged(lines: &Receiver<String>, tag: &str) -> String {
    let deadline = Instant::now() + TAG_WAIT;
    loop {
        match lines.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(line) => {
                if let Some((_, value)) = line.split_once(tag) {
                    return value.trim_end().to_string();
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                panic!("no {tag:?} line from the child within {TAG_WAIT:?}")
            }
            Err(RecvTimeoutError::Disconnected) => panic!("the child exited before {tag:?}"),
        }
    }
}

/// Closes the child's stdin, which tells it to shut its server down, and
/// waits up to ten seconds for it to exit.
fn finish(mut child: Child) -> Option<ExitStatus> {
    drop(child.stdin.take());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return Some(status);
        }
        if Instant::now() > deadline {
            child.kill().unwrap();
            child.wait().unwrap();
            return None;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn a_connection_that_cannot_be_registered_is_shed() {
    if std::env::var_os(CHILD).is_some() {
        serve_with_no_free_descriptors();
        return;
    }
    let mut child = spawn_child("a_connection_that_cannot_be_registered_is_shed");
    let stdout = stdout_lines(&mut child);
    let addr = read_tagged(&stdout, "addr ");

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
    let status = finish(child);
    drop(conn);
    assert!(status.is_some_and(|s| s.success()), "child: {status:?}");
}

#[test]
fn accept_pauses_while_descriptors_run_out() {
    if std::env::var_os(CHILD).is_some() {
        serve_while_accept_fails();
        return;
    }
    let mut child = spawn_child("accept_pauses_while_descriptors_run_out");
    let mut stdin = child.stdin.take().unwrap();
    let stdout = stdout_lines(&mut child);
    let addr = read_tagged(&stdout, "addr ");

    // The first connection takes the descriptor `accept` had reserved and
    // the child's last free one for its clone; from then on every `accept`
    // fails.
    let mut first = TcpStream::connect(&addr).unwrap();
    first
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    first.write_all(b"list\n").unwrap();
    assert!(
        first.read(&mut [0u8; 64]).unwrap() > 0,
        "first connection unserved"
    );
    // The second waits in the listen backlog, its command sent.
    let mut pending = TcpStream::connect(&addr).unwrap();
    pending
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    pending.write_all(b"list\n").unwrap();

    writeln!(stdin, "measure").unwrap();
    let ticks: u64 = read_tagged(&stdout, "ticks ").parse().unwrap();
    assert!(
        ticks < MAX_ACCEPT_TICKS,
        "the accept thread ran {ticks} ticks of 10 ms in one second of failing accepts"
    );
    writeln!(stdin, "free").unwrap();
    let mut reply = [0u8; 64];
    let read = pending.read(&mut reply).unwrap();
    assert!(read > 0, "the pending connection was not served");

    child.stdin = Some(stdin);
    let status = finish(child);
    drop((first, pending));
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

/// The child's half of the pause test: a server whose table is full but
/// for one descriptor, which the first connection's clone takes. On
/// `measure` it prints the accept thread's CPU ticks over one second, and
/// on `free` it frees its descriptors; it shuts down when stdin closes.
fn serve_while_accept_fails() {
    let runtime = ShardedRuntime::start(RuntimeConfig::new().shards(1));
    let server = Server::start(ServerConfig::new().addr("127.0.0.1:0"), runtime).unwrap();
    let stat = loop {
        if let Some(stat) = sleeping_accept_thread() {
            break stat;
        }
        std::thread::yield_now();
    };
    // Opened now: with the table full, reading it later needs no new
    // descriptor.
    let mut stat = File::open(stat).unwrap();
    let mut fillers = Vec::new();
    while let Ok(file) = File::open("/dev/null") {
        fillers.push(file);
    }
    fillers.pop();
    println!("addr {}", server.local_addr());
    let mut stdin = BufReader::new(std::io::stdin());
    let mut line = String::new();
    stdin.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "measure");
    let before = cpu_ticks(&mut stat);
    std::thread::sleep(Duration::from_secs(1));
    println!("ticks {}", cpu_ticks(&mut stat) - before);
    line.clear();
    stdin.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "free");
    drop(fillers);
    let _ = stdin.read_line(&mut line);
    server.shutdown();
}

/// A task's `utime + stime`, in clock ticks, read afresh from its open
/// `stat` file.
fn cpu_ticks(stat: &mut File) -> u64 {
    stat.seek(SeekFrom::Start(0)).unwrap();
    let mut text = String::new();
    stat.read_to_string(&mut text).unwrap();
    // `pid (comm) state ppid ...`: utime and stime are fields 14 and 15,
    // the 12th and 13th after the state.
    let (_, tail) = text.rsplit_once(") ").unwrap();
    let fields: Vec<&str> = tail.split_whitespace().collect();
    fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
}

/// Whether the server's accept thread is asleep. Before its first
/// connection the only place it sleeps is `accept`.
fn accept_thread_sleeps() -> bool {
    sleeping_accept_thread().is_some()
}

/// The `stat` path of the server's accept thread, if it is asleep.
fn sleeping_accept_thread() -> Option<PathBuf> {
    let tasks = std::fs::read_dir("/proc/self/task").unwrap();
    tasks
        .map(|task| task.unwrap().path().join("stat"))
        .find(|stat| {
            // `pid (comm) state ...`; the kernel cuts comm to 15 bytes.
            let stat = std::fs::read_to_string(stat).unwrap_or_default();
            let Some((head, tail)) = stat.split_once(") ") else {
                return false;
            };
            head.ends_with("(fourcycle-accep") && tail.starts_with('S')
        })
}
