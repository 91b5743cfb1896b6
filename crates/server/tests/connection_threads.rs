//! One open connection holds exactly one server thread: the thread that
//! reads a connection's commands also waits their tickets and writes the
//! replies. Alone in its binary, so the only connections in the process
//! are this test's.

#![cfg(target_os = "linux")]
#![allow(clippy::unwrap_used, reason = "test code may unwrap")]

use fourcycle_runtime::{RuntimeConfig, ShardedRuntime};
use fourcycle_server::{Client, Server, ServerConfig};
use fourcycle_service::{GraphId, Request, Response};

/// Threads of this process whose name (`comm`, cut to 15 bytes by the
/// kernel) starts with `prefix`.
fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.unwrap().path().join("comm")).ok())
        .filter(|comm| comm.starts_with(prefix))
        .count()
}

#[test]
fn each_open_connection_holds_exactly_one_server_thread() {
    let runtime = ShardedRuntime::start(RuntimeConfig::new().shards(1));
    let server = Server::start(ServerConfig::new(), runtime).unwrap();
    let mut clients: Vec<Client> = (0..3)
        .map(|_| Client::connect(server.local_addr()).unwrap())
        .collect();
    for (i, client) in (0u64..).zip(&mut clients) {
        let id = GraphId(i);
        assert_eq!(
            client
                .call(&Request::CreateGraph { id, spec: None })
                .unwrap(),
            Response::Created { id }
        );
    }
    assert_eq!(threads_named("fourcycle-conn"), 3);
    drop(clients);
    server.shutdown();
}
