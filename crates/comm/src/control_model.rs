//! Model case of multi-process termination (DESIGN §9): two shipped
//! [`ControlPlane`]s and their ledgers behind a fake [`ControlPort`],
//! explored by `ttg_model::explore` (`RUSTFLAGS="--cfg ttg_model" cargo
//! test -p ttg-comm --lib`).
//!
//! Rank 0's one seeded task sends an AM to rank 1, whose handler may (a
//! `nondet` choice) answer it. An answer starts an exchange: each handler
//! answers the AM it runs with one to the other rank, up to [`HOPS`] AMs
//! in all. Each rank has the two threads the real stack gives it. Its
//! reader does what `Fabric::link_rx` does: a control frame goes to
//! [`ControlPlane::on_frame`]; an AM is issued on the inbound ledger row
//! as it leaves the wire and queued for delivery. Its delivery thread
//! does what the executor's comm thread does: it runs the handler, then
//! settles the row (`Fabric::packet_processed`). So a reader may answer a
//! probe while its delivery thread is inside a handler. Rank 1's wait
//! loop answers a deferred probe when a settle wakes it, here on the
//! delivery thread after each settle. Rank 0's wait loop polls termination
//! as `Executor::wait` does, parked on its event count in between.
//!
//! Invariant: nothing that is still work — the task, a frame leaving the
//! wire, a handler starting or finishing — finds termination declared.

use super::*;
use crate::ledger::Ledger;
use ttg_model::{explore, nondet, thread, Config, Queue};

/// The preemption bound the case explores exhaustively.
const BOUND: usize = 1;

/// Ranks in the job.
const N: usize = 2;

/// AMs in an exchange. Four is the fewest with which rank 1 can reply to
/// a probe idle and then, through a 0→1→0 exchange that follows, be busy
/// again while the sums balance: what a declaration on one round misses.
const HOPS: usize = 4;

/// What a link carries to a rank.
enum Msg {
    /// An AM from the rank named, the `.1`th of the run.
    Am(Rank, usize),
    Control(Frame),
    /// The model's end of the run (a real link ends with its endpoint).
    Stop,
}

/// Every rank of the job: control planes, ledgers, the links into each
/// rank and each rank's delivery queue, and rank 0's pool.
struct Job {
    planes: [ControlPlane; N],
    ledgers: [Ledger; N],
    links: [Queue<Msg>; N],
    /// An AM's inbound row and hop, or `None` at the end of the run.
    deliveries: [Queue<Option<(usize, usize)>>; N],
    /// Rank 0's pool: its one seeded task, until it finishes.
    active: AtomicU64,
}

/// Rank `.1`'s port onto the job's links.
struct Port<'a>(&'a Job, Rank);

impl ControlPort for Port<'_> {
    fn send_control(&self, _from: Rank, to: Rank, frame: Frame) {
        self.0.links[to].push(Msg::Control(frame));
    }

    fn ledger(&self) -> &Ledger {
        &self.0.ledgers[self.1]
    }
}

impl Job {
    /// Work found termination declared.
    fn still_work(&self, what: &str) {
        assert!(
            !self.planes[0].done(),
            "terminated early: {what} after done was declared"
        );
    }

    /// `Fabric::send_am` between processes: issue, then the link send.
    fn send_am(&self, from: Rank, to: Rank, hop: usize) {
        self.ledgers[from].issue(from, to);
        self.links[to].push(Msg::Am(from, hop));
    }
}

/// Rank `me`'s reader: the receive dispatch of `Fabric::link_rx`.
fn reader(job: &Job, me: Rank) {
    let port = Port(job, me);
    loop {
        match job.links[me].pop() {
            Msg::Am(from, hop) => {
                job.still_work("a frame left the wire");
                let li = job.ledgers[me].issue(from, me);
                job.deliveries[me].push(Some((li, hop)));
            }
            Msg::Control(frame) => job.planes[me].on_frame(&port, frame),
            Msg::Stop => return job.deliveries[me].push(None),
        }
    }
}

/// Rank `me`'s delivery thread: the handler, then the settle.
fn deliver(job: &Job, me: Rank) {
    let port = Port(job, me);
    while let Some((li, hop)) = job.deliveries[me].pop() {
        job.still_work("a handler started");
        if hop < HOPS && (hop > 1 || nondet(2) == 1) {
            job.send_am(me, 1 - me, hop + 1);
        }
        job.still_work("a handler finished");
        job.ledgers[me].settle(li).expect("settled once");
        if me != 0 {
            job.planes[me].step(&port);
        }
    }
}

/// Rank 0's wait loop, as `Executor::wait` runs it between processes.
fn wait(job: &Job) {
    let port = Port(job, 0);
    let events = job.ledgers[0].events();
    loop {
        let epoch = events.prepare();
        job.planes[0].step(&port);
        if job.planes[0].done() {
            events.cancel();
            return;
        }
        events.wait(epoch);
    }
}

fn term() {
    let events: [_; N] = std::array::from_fn(|_| Arc::new(EventCount::new()));
    let job = Arc::new(Job {
        planes: std::array::from_fn(|r| ControlPlane::new(r, N, None, Arc::clone(&events[r]))),
        ledgers: std::array::from_fn(|r| Ledger::new(N, Some(r), Arc::clone(&events[r]))),
        links: std::array::from_fn(|_| Queue::new()),
        deliveries: std::array::from_fn(|_| Queue::new()),
        active: AtomicU64::new(1),
    });
    let idle = Arc::clone(&job);
    job.planes[0].install_idle_probe(Box::new(move || {
        (idle.active.load(Ordering::SeqCst) == 0, 0)
    }));
    for plane in &job.planes[1..] {
        plane.install_idle_probe(Box::new(|| (true, 0)));
    }
    let spawn = |name, f: Box<dyn FnOnce(&Job) + Send>| {
        let job = Arc::clone(&job);
        thread::spawn_named(name, move || f(&job))
    };
    let work = [
        spawn(
            "task0",
            Box::new(|job| {
                job.still_work("the seeded task ran");
                job.send_am(0, 1, 1);
                job.active.store(0, Ordering::SeqCst);
                job.ledgers[0].events().signal_all();
            }),
        ),
        spawn("wait0", Box::new(wait)),
    ];
    let ranks = [
        spawn("reader0", Box::new(|job| reader(job, 0))),
        spawn("deliver0", Box::new(|job| deliver(job, 0))),
        spawn("reader1", Box::new(|job| reader(job, 1))),
        spawn("deliver1", Box::new(|job| deliver(job, 1))),
    ];
    for t in work {
        t.join();
    }
    for l in &job.links {
        l.push(Msg::Stop);
    }
    for t in ranks {
        t.join();
    }
}

#[test]
fn term_case() {
    let stats =
        explore(Config::bounded(BOUND), term).unwrap_or_else(|v| panic!("model case term: {v}"));
    println!("model control::term bound={BOUND} {stats}");
    assert!(stats.exhaustive && stats.schedules > 1, "term: {stats}");
}
