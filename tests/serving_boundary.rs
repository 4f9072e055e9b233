//! One serving-boundary matrix: the same client script through both
//! serving engines (`serve_async`, `serve_async_combining`) over every
//! backend kind — the simulator tree, the shared-memory tree, the
//! threaded tree and a keyspace. Unit, explicit-initiator, batched and
//! keyed incs, and a replay on a resumed session, all reach the backend
//! as one call under one dedup token, so every cell of the product must
//! answer identically: the same values, the same `ops`/`deduped`, and
//! `NoSuchKey` for a foreign key on exactly the single-counter backends.

use distctr::core::{CounterBackend, TreeCounter};
use distctr::keyspace::{Keyspace, KeyspaceConfig};
use distctr::net::ThreadedTreeCounter;
use distctr::server::{CounterServer, ErrCode, RemoteCounter, ServerError};
use distctr::shm::ShmTreeCounter;
use distctr::sim::ProcessorId;

/// What one run of the script observed.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    /// Every value (or range start) handed out, in script order.
    values: Vec<u64>,
    /// The server's `(ops, deduped)` before the foreign-key step.
    counts: (u64, u64),
    /// `inc_key(5)`: the value, or `None` for `NoSuchKey`.
    foreign_key: Option<u64>,
}

fn script<B: CounterBackend + Send + 'static>(backend: B, combining: bool) -> Observed {
    let mut server = if combining {
        CounterServer::serve_async_combining(backend)
    } else {
        CounterServer::serve_async(backend)
    }
    .expect("serve");
    let addr = server.local_addr();
    let mut client = RemoteCounter::connect(addr).expect("connect");
    let mut values = vec![
        client.inc().expect("inc"),
        client.inc_as(ProcessorId::new(3)).expect("inc_as"),
        client.inc_batch(3).expect("inc_batch"),
        client.inc_key(0).expect("inc_key"),
        client.inc_batch_key(0, 2).expect("inc_batch_key"),
    ];
    // Request 0 was acked; replaying it on a resumed session must not
    // increment again.
    let mut resumed = RemoteCounter::resume(addr, client.session()).expect("resume");
    values.push(resumed.inc_with_id(0, None).expect("replay"));
    let stats = server.stats();
    let foreign_key = match client.inc_key(5) {
        Ok(value) => Some(value),
        Err(ServerError::Remote(ErrCode::NoSuchKey)) => None,
        Err(e) => panic!("inc_key(5) failed: {e}"),
    };
    server.shutdown().expect("shutdown");
    Observed { values, counts: (stats.ops, stats.deduped), foreign_key }
}

fn check_every_backend(combining: bool) {
    let single =
        |foreign_key| Observed { values: vec![0, 1, 2, 5, 6, 0], counts: (8, 1), foreign_key };
    let runs = [
        ("sim tree", script(TreeCounter::new(8).expect("sim"), combining), single(None)),
        ("shm tree", script(ShmTreeCounter::new(8).expect("shm"), combining), single(None)),
        (
            "threaded tree",
            script(ThreadedTreeCounter::new(8).expect("threads"), combining),
            single(None),
        ),
        ("keyspace", script(Keyspace::sim(KeyspaceConfig::new(8)), combining), single(Some(0))),
    ];
    for (name, observed, expected) in runs {
        assert_eq!(observed, expected, "{name} (combining: {combining})");
    }
}

#[test]
fn every_backend_answers_the_script_alike_on_the_sequential_engine() {
    check_every_backend(false);
}

#[test]
fn every_backend_answers_the_script_alike_on_the_combining_engine() {
    check_every_backend(true);
}
