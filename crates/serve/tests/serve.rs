//! Integration tests of the `splice-serve` daemon as a real process:
//! spawn the binary, speak the socket protocol, inject faults via
//! `SPLICE_FAULT`, and verify the supervision machinery — exactly-once
//! responses under crashes and hangs, circuit breaking, cache digests,
//! SIGTERM drain, and protocol-garbage handling.

use splice_obs::json::JsonValue;
use splice_serve::protocol::{JobErrorKind, JobVerdict};
use splice_serve::{Client, JobOptions, Request, Response};
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// A timer-like spec template; the comment keeps every instance a
/// distinct cache key so each job really reaches a worker.
fn spec(tag: &str) -> String {
    format!(
        "/* serve-test job {tag} */\n\
         %device_name dev_t\n\
         %bus_type plb\n\
         %bus_width 32\n\
         %base_address 0x80000000\n\
         void set_v(int v);\n\
         int get_v();\n"
    )
}

struct Daemon {
    child: Child,
    socket: String,
    dir: PathBuf,
}

impl Daemon {
    fn spawn(tag: &str, flags: &[&str], env: &[(&str, &str)]) -> Daemon {
        let dir =
            std::env::temp_dir().join(format!("splice-serve-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("d.sock").to_string_lossy().into_owned();
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_splice-serve"));
        cmd.arg("--socket").arg(&socket).args(flags);
        cmd.env_remove("SPLICE_FAULT");
        for (k, v) in env {
            cmd.env(k, v);
        }
        cmd.stdout(Stdio::null()).stderr(Stdio::null());
        let child = cmd.spawn().expect("daemon spawns");
        Daemon { child, socket, dir }
    }

    fn client(&self) -> Client {
        Client::connect_with_retry(&self.socket, Duration::from_secs(10)).expect("daemon is up")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn counter(status: &JsonValue, name: &str) -> u64 {
    status
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(JsonValue::as_u64)
        .unwrap_or(0)
}

/// The acceptance batch: 200 jobs through a pool whose workers crash 20%
/// of the time and hang 10% of the time. Every job must come back exactly
/// once, the vast majority with a verdict, and the books must balance.
#[test]
fn batch_of_200_survives_crash_and_hang_injection() {
    let daemon = Daemon::spawn(
        "batch",
        &[
            "--workers",
            "4",
            "--deadline-ms",
            "800",
            "--max-attempts",
            "4",
            "--per-client",
            "512",
            "--queue-cap",
            "512",
            "--breaker-threshold",
            "50",
        ],
        &[("SPLICE_FAULT", "crash:p0.2,hang:p0.1")],
    );
    let mut client = daemon.client();
    client.set_read_timeout(Some(Duration::from_secs(180))).unwrap();

    const JOBS: u64 = 200;
    for i in 0..JOBS {
        let id = client.next_id();
        client
            .send(&Request::Generate {
                id,
                spec: spec(&format!("batch-{i}")),
                options: JobOptions::default(),
            })
            .expect("send");
    }

    let mut seen: HashMap<u64, u32> = HashMap::new();
    let mut verdicts = 0u64;
    let mut job_errors = 0u64;
    for _ in 0..JOBS {
        match client.recv().expect("recv").expect("no early EOF") {
            Response::Result { id, verdict, cached, .. } => {
                assert!(!cached, "distinct specs cannot be cache hits");
                assert!(
                    matches!(verdict, JobVerdict::Ok { .. }),
                    "clean spec must generate: {verdict:?}"
                );
                *seen.entry(id).or_insert(0) += 1;
                verdicts += 1;
            }
            Response::JobError { id, kind, .. } => {
                assert!(
                    matches!(kind, JobErrorKind::Crashed | JobErrorKind::Timeout),
                    "only fault-induced failures are acceptable: {kind:?}"
                );
                *seen.entry(id).or_insert(0) += 1;
                job_errors += 1;
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    // Exactly-once: every id answered, no id answered twice, none lost.
    assert_eq!(seen.len() as u64, JOBS, "every job answered");
    assert!(seen.values().all(|&n| n == 1), "no duplicated responses");
    assert!(verdicts >= 190, "faults are retried: {verdicts} verdicts, {job_errors} errors");

    // The injection really fired and the metrics balance.
    let status = JsonValue::parse(&client.status().expect("status")).expect("status json");
    let submitted = counter(&status, "serve.jobs.submitted");
    let completed = counter(&status, "serve.jobs.completed");
    let failed = counter(&status, "serve.jobs.failed");
    assert_eq!(submitted, JOBS);
    assert_eq!(completed + failed, submitted, "{completed} + {failed} != {submitted}");
    assert_eq!(completed, verdicts);
    assert_eq!(failed, job_errors);
    assert!(
        counter(&status, "serve.worker.restarts") >= 1,
        "crash injection must have killed at least one worker"
    );
    assert!(counter(&status, "serve.jobs.retries") >= 1, "faulted jobs must be retried");
    let p99 = status
        .get("latency_ms")
        .and_then(|l| l.get("p99"))
        .and_then(JsonValue::as_u64)
        .expect("p99 present");
    assert!(p99 > 0, "latency histogram populated");
}

/// Identical (spec, options) pairs are served from the content cache with
/// the same digest as the fresh run; different options miss.
#[test]
fn cache_replays_identical_jobs_with_matching_digest() {
    let daemon = Daemon::spawn("cache", &["--workers", "1"], &[]);
    let mut client = daemon.client();
    client.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let s = spec("cache");

    let fresh = client.generate(&s, JobOptions::default()).expect("fresh");
    let (fresh_digest, fresh_cached) = match &fresh {
        Response::Result { cached, verdict: JobVerdict::Ok { digest, .. }, .. } => {
            (*digest, *cached)
        }
        other => panic!("expected ok verdict: {other:?}"),
    };
    assert!(!fresh_cached);

    let replay = client.generate(&s, JobOptions::default()).expect("replay");
    match &replay {
        Response::Result { cached, attempts, verdict: JobVerdict::Ok { digest, .. }, .. } => {
            assert!(*cached, "identical job must be a cache hit");
            assert_eq!(*attempts, 0, "cache hits consume no worker attempts");
            assert_eq!(*digest, fresh_digest, "cached digest must equal fresh digest");
        }
        other => panic!("expected cached ok verdict: {other:?}"),
    }

    // Changing options changes the key (and the output digest: --linux
    // emits an extra header).
    let linux = JobOptions { linux: true, ..JobOptions::default() };
    match client.generate(&s, linux).expect("linux variant") {
        Response::Result { cached, verdict: JobVerdict::Ok { digest, .. }, .. } => {
            assert!(!cached, "different options must miss the cache");
            assert_ne!(digest, fresh_digest);
        }
        other => panic!("expected ok verdict: {other:?}"),
    }

    let status = JsonValue::parse(&client.status().expect("status")).expect("json");
    let hits =
        status.get("cache").and_then(|c| c.get("hits")).and_then(JsonValue::as_u64).unwrap_or(0);
    assert_eq!(hits, 1);
}

/// A spec that deterministically kills every worker that touches it must
/// trip its circuit breaker; other specs keep flowing.
#[test]
fn breaker_opens_for_a_permanently_crashing_spec() {
    let daemon = Daemon::spawn(
        "breaker",
        &["--workers", "2", "--max-attempts", "3", "--breaker-threshold", "3"],
        &[("SPLICE_FAULT", "bomb:dev_bomb")],
    );
    let mut client = daemon.client();
    client.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let bomb = spec("boom").replace("dev_t", "dev_bomb");

    // First submission: every attempt crashes the worker; the retry
    // budget exhausts and the breaker absorbs three consecutive failures.
    match client.generate(&bomb, JobOptions::default()).expect("bomb 1") {
        Response::JobError { kind, attempts, .. } => {
            assert_eq!(kind, JobErrorKind::Crashed);
            assert_eq!(attempts, 3);
        }
        other => panic!("expected crash error: {other:?}"),
    }

    // Second submission: the breaker is open, so the job fast-fails
    // without burning another worker.
    match client.generate(&bomb, JobOptions::default()).expect("bomb 2") {
        Response::JobError { kind, .. } => assert_eq!(kind, JobErrorKind::BreakerOpen),
        other => panic!("expected breaker_open: {other:?}"),
    }

    // An innocent spec still generates.
    match client.generate(&spec("innocent"), JobOptions::default()).expect("innocent") {
        Response::Result { verdict, .. } => assert!(verdict.is_ok()),
        other => panic!("expected ok verdict: {other:?}"),
    }

    let status = JsonValue::parse(&client.status().expect("status")).expect("json");
    assert!(counter(&status, "serve.breaker.trips") >= 1);
    assert!(counter(&status, "serve.breaker.fastfails") >= 1);
    let open =
        status.get("breakers").and_then(|b| b.get("open")).and_then(JsonValue::as_u64).unwrap_or(0);
    assert_eq!(open, 1, "exactly the bomb spec's breaker is open");
}

/// Breakers exist only for specs whose latest attempt failed: a success
/// removes the spec's breaker. Distinct specs that all generate leave the
/// map empty; under crash injection, specs that crash and then recover on
/// retry leave nothing either, so the map holds exactly the specs that
/// ran out of attempts.
#[test]
fn successful_specs_leave_no_breaker_behind() {
    /// Submit `jobs` distinct specs; returns (job errors, `breakers.total`).
    fn run(tag: &str, fault: &str, jobs: u64) -> (u64, u64) {
        let daemon = Daemon::spawn(
            tag,
            &["--workers", "2", "--max-attempts", "4", "--breaker-threshold", "50"],
            &[("SPLICE_FAULT", fault)],
        );
        let mut client = daemon.client();
        client.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
        let mut job_errors = 0u64;
        for i in 0..jobs {
            let spec = spec(&format!("{tag}-{i}"));
            match client.generate(&spec, JobOptions::default()).expect("job") {
                Response::Result { verdict, .. } => assert!(verdict.is_ok()),
                Response::JobError { kind, .. } => {
                    assert_eq!(kind, JobErrorKind::Crashed);
                    job_errors += 1;
                }
                other => panic!("unexpected response: {other:?}"),
            }
        }
        let status = JsonValue::parse(&client.status().expect("status")).expect("json");
        let total = status.get("breakers").and_then(|b| b.get("total")).and_then(JsonValue::as_u64);
        (job_errors, total.expect("breakers.total"))
    }

    assert_eq!(run("breaker-map-clean", "", 40), (0, 0), "successes must not leave breakers");
    let (job_errors, total) = run("breaker-map-crash", "crash:p0.3", 24);
    assert_eq!(total, job_errors, "one breaker per spec that ended in failure, none otherwise");
}

/// SIGTERM must drain: every job admitted before the signal still gets
/// its response, then the daemon exits cleanly and removes its socket.
#[test]
fn sigterm_drains_in_flight_jobs_before_exit() {
    let mut daemon = Daemon::spawn(
        "drain",
        &["--workers", "2", "--deadline-ms", "5000"],
        &[("SPLICE_FAULT", "slow:ms200")],
    );
    let mut client = daemon.client();
    client.set_read_timeout(Some(Duration::from_secs(60))).unwrap();

    const JOBS: u64 = 8;
    for i in 0..JOBS {
        let id = client.next_id();
        client
            .send(&Request::Generate {
                id,
                spec: spec(&format!("drain-{i}")),
                options: JobOptions::default(),
            })
            .expect("send");
    }
    // Let the daemon admit the batch, then pull the rug.
    std::thread::sleep(Duration::from_millis(150));
    splice_obs::interrupt::send_signal(daemon.child.id(), 15);

    let mut answered = 0u64;
    for _ in 0..JOBS {
        match client.recv().expect("drained response") {
            Some(Response::Result { verdict, .. }) => {
                assert!(verdict.is_ok());
                answered += 1;
            }
            Some(other) => panic!("unexpected response during drain: {other:?}"),
            None => break,
        }
    }
    assert_eq!(answered, JOBS, "every admitted job must be answered before exit");

    let code = daemon.child.wait().expect("daemon exits").code();
    assert_eq!(code, Some(0), "drained daemon exits 0");
    assert!(!std::path::Path::new(&daemon.socket).exists(), "socket is removed on clean shutdown");
}

/// Garbage on the wire gets an explicit protocol_error, never a hang.
#[test]
fn protocol_garbage_is_answered_and_the_connection_closed() {
    let daemon = Daemon::spawn("garbage", &["--workers", "1"], &[]);
    let mut client = daemon.client();
    client.set_read_timeout(Some(Duration::from_secs(30))).unwrap();

    client.stream_mut().write_all(b"not a splice frame at all").expect("write garbage");
    match client.recv().expect("protocol error response") {
        Some(Response::ProtocolError { message }) => {
            assert!(!message.is_empty());
        }
        other => panic!("expected protocol_error, got {other:?}"),
    }
    // The daemon hangs up after answering.
    assert!(matches!(client.recv(), Ok(None) | Err(_)));

    // A malformed-but-framed payload also gets a protocol_error.
    let mut fresh = daemon.client();
    fresh.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    splice_serve::protocol::write_frame(fresh.stream_mut(), b"{\"type\":\"nonsense\"}")
        .expect("write frame");
    match fresh.recv().expect("response") {
        Some(Response::ProtocolError { .. }) => {}
        other => panic!("expected protocol_error, got {other:?}"),
    }

    // And the daemon survived both: a healthy client still works.
    let mut ok = daemon.client();
    ok.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    match ok.generate(&spec("after-garbage"), JobOptions::default()).expect("generate") {
        Response::Result { verdict, .. } => assert!(verdict.is_ok()),
        other => panic!("expected ok verdict: {other:?}"),
    }
}

/// Health and shutdown requests round-trip; shutdown drains the daemon.
#[test]
fn health_status_and_shutdown_round_trip() {
    let mut daemon = Daemon::spawn("health", &["--workers", "2"], &[]);
    let mut client = daemon.client();
    client.set_read_timeout(Some(Duration::from_secs(30))).unwrap();

    let id = client.next_id();
    match client.roundtrip(&Request::Health { id }).expect("health") {
        Response::Health { id: rid, draining, .. } => {
            assert_eq!(rid, id);
            assert!(!draining);
        }
        other => panic!("expected health, got {other:?}"),
    }

    let status = JsonValue::parse(&client.status().expect("status")).expect("json");
    for key in ["workers", "workers_alive", "queue_depth", "cache", "breakers", "metrics"] {
        assert!(status.get(key).is_some(), "status is missing `{key}`");
    }

    client.shutdown().expect("shutdown ack");
    let code = daemon.child.wait().expect("daemon exits").code();
    assert_eq!(code, Some(0));
}
