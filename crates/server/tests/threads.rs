//! The server's thread contract: however many connections it holds, a
//! combining server runs exactly two service threads, named
//! `distctr-reactor` and `distctr-combiner`. The benchmark finds its
//! per-thread CPU and wakeup rows in `/proc` by those names. This file
//! holds one test so no other server shares the process.
#![cfg(target_os = "linux")]

use std::net::TcpStream;

use distctr_core::TreeCounter;
use distctr_server::wire::{write_frame, FrameReader};
use distctr_server::{CounterServer, WireMsg};

/// The `distctr-*` threads of this process, by the name the kernel
/// keeps for them (the first 15 bytes).
fn service_threads() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
        .map(|comm| comm.trim().to_string())
        .filter(|comm| comm.starts_with("distctr-"))
        .collect();
    names.sort();
    names
}

#[test]
fn a_combining_server_runs_one_reactor_and_one_combiner_thread() {
    let backend = TreeCounter::new(8).expect("tree");
    let mut server = CounterServer::serve_async_combining(backend).expect("serve");
    let mut conns: Vec<TcpStream> = (0..64)
        .map(|_| {
            let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
            write_frame(&mut stream, &WireMsg::Hello { resume: None }).expect("hello");
            let hello = FrameReader::new().next_frame(&mut stream);
            assert!(matches!(hello, Ok(WireMsg::HelloOk { .. })));
            stream
        })
        .collect();
    for stream in &mut conns {
        write_frame(stream, &WireMsg::Inc { request_id: 0, initiator: None }).expect("inc");
    }
    for stream in &mut conns {
        assert!(matches!(FrameReader::new().next_frame(stream), Ok(WireMsg::IncOk { .. })));
    }
    assert_eq!(server.stats().ops, 64);
    // All 64 connections are still open and served.
    assert_eq!(service_threads(), ["distctr-combine", "distctr-reactor"]);
    server.shutdown().expect("shutdown");
}
