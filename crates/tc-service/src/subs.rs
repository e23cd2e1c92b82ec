//! The subscription registry: predicates attached to connections.
//!
//! A `subscribe` request registers a [`Predicate`] for a dataset on the
//! issuing connection. Every applied `update` batch then evaluates the
//! dataset's watchers just before and just after the apply, while the
//! update holds its dataset alone (see
//! [`GraphRegistry::apply_update_watched`](crate::registry::GraphRegistry::apply_update_watched)),
//! and pushes one notification frame per tripped subscription onto the
//! subscriber's connection — through the same ordered per-connection
//! queue the writer resolves responses from, so a push never interleaves
//! into the middle of a response line and always arrives *after* the
//! `subscribe` acknowledgement that created it. A shard applies a
//! dataset's batches in admission order, so pushes arrive in the order
//! of the batches that caused them.
//!
//! Lifecycle: a subscription dies by explicit `unsubscribe` (only from
//! its owning connection), by its connection disconnecting (the reader
//! thread calls `SubscriptionRegistry::drop_connection` on exit), or
//! lazily when a push fails because the writer is gone.

use crate::server::{ConnContext, Pending};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use tc_analytics::Predicate;
use tc_datasets::Dataset;

struct Subscription {
    conn_id: u64,
    dataset: Dataset,
    predicate: Predicate,
    out: mpsc::Sender<Pending>,
}

/// One shard's live subscriptions: a subscription lives on the shard
/// that owns its dataset (the only shard whose updates can trip it), so
/// the watch/push path under an `update` stays shard-local. The id
/// counter may be shared across shards ([`Self::with_shared_ids`]) so
/// subscription ids stay process-unique — `unsubscribe`, which carries
/// only an id, fans out across shards at the engine layer.
#[derive(Default)]
pub struct SubscriptionRegistry {
    inner: Mutex<HashMap<u64, Subscription>>,
    next_id: Arc<AtomicU64>,
    subscribes: AtomicU64,
    unsubscribes: AtomicU64,
    notifications_sent: AtomicU64,
    dropped_dead: AtomicU64,
}

impl SubscriptionRegistry {
    /// An empty registry with its own id counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty registry drawing ids from a counter shared with other
    /// shards' registries, keeping ids unique across the whole engine.
    pub fn with_shared_ids(ids: Arc<AtomicU64>) -> Self {
        Self {
            next_id: ids,
            ..Self::default()
        }
    }

    /// Registers `predicate` for `dataset` on the calling connection;
    /// returns the new subscription id (ids are never reused).
    pub(crate) fn subscribe(
        &self,
        ctx: &ConnContext,
        dataset: Dataset,
        predicate: Predicate,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        self.subscribes.fetch_add(1, Ordering::Relaxed);
        self.inner.lock().expect("subs lock").insert(
            id,
            Subscription {
                conn_id: ctx.conn_id,
                dataset,
                predicate,
                out: ctx.out.clone(),
            },
        );
        id
    }

    /// The `(subscription id, predicate)` pairs watching `dataset`, in
    /// ascending id order (deterministic evaluation and push order).
    pub fn watchers(&self, dataset: Dataset) -> Vec<(u64, Predicate)> {
        let inner = self.inner.lock().expect("subs lock");
        let mut out: Vec<(u64, Predicate)> = inner
            .iter()
            .filter(|(_, s)| s.dataset == dataset)
            .map(|(&id, s)| (id, s.predicate))
            .collect();
        out.sort_unstable_by_key(|&(id, _)| id);
        out
    }

    /// Pushes one notification frame to subscription `sub`'s connection.
    /// Returns `false` (and reaps the subscription) if the connection's
    /// writer is gone or the subscription was removed concurrently.
    pub(crate) fn push(&self, sub: u64, frame: String) -> bool {
        let mut inner = self.inner.lock().expect("subs lock");
        let Some(s) = inner.get(&sub) else {
            return false;
        };
        if s.out.send(Pending::Ready(frame)).is_err() {
            inner.remove(&sub);
            self.dropped_dead.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        self.notifications_sent.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Removes subscription `sub`. When `conn_id` is `Some`, the removal
    /// only succeeds if that connection owns the subscription — the
    /// connection-scoping the `unsubscribe` op documents. `None` is the
    /// trusted in-process path (tests, admin tooling).
    pub fn unsubscribe(&self, sub: u64, conn_id: Option<u64>) -> bool {
        let mut inner = self.inner.lock().expect("subs lock");
        let owned = match (inner.get(&sub), conn_id) {
            (None, _) => false,
            (Some(_), None) => true,
            (Some(s), Some(conn)) => s.conn_id == conn,
        };
        if owned {
            inner.remove(&sub);
            self.unsubscribes.fetch_add(1, Ordering::Relaxed);
        }
        owned
    }

    /// Removes every subscription owned by a disconnected connection;
    /// returns how many were dropped. Called by the connection's reader
    /// thread on exit — this also drops the registry's clones of the
    /// connection's output channel, which is what lets the writer thread
    /// drain and exit.
    pub(crate) fn drop_connection(&self, conn_id: u64) -> usize {
        let mut inner = self.inner.lock().expect("subs lock");
        let before = inner.len();
        inner.retain(|_, s| s.conn_id != conn_id);
        let dropped = before - inner.len();
        self.dropped_dead
            .fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }

    /// Live subscriptions, total.
    pub fn active(&self) -> usize {
        self.inner.lock().expect("subs lock").len()
    }

    /// Live subscriptions watching `dataset`.
    pub fn active_for(&self, dataset: Dataset) -> usize {
        self.inner
            .lock()
            .expect("subs lock")
            .values()
            .filter(|s| s.dataset == dataset)
            .count()
    }

    /// Lifetime `subscribe` count.
    pub fn subscribes(&self) -> u64 {
        self.subscribes.load(Ordering::Relaxed)
    }

    /// Lifetime successful `unsubscribe` count.
    pub fn unsubscribes(&self) -> u64 {
        self.unsubscribes.load(Ordering::Relaxed)
    }

    /// Notification frames successfully handed to connection writers.
    pub fn notifications_sent(&self) -> u64 {
        self.notifications_sent.load(Ordering::Relaxed)
    }

    /// Subscriptions reaped because their connection disappeared.
    pub fn dropped_dead(&self) -> u64 {
        self.dropped_dead.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn ctx(conn_id: u64) -> (ConnContext, mpsc::Receiver<Pending>) {
        let (tx, rx) = mpsc::channel();
        (ConnContext { conn_id, out: tx }, rx)
    }

    const P: Predicate = Predicate::CountCross { threshold: 1 };

    #[test]
    fn subscribe_watch_push_unsubscribe() {
        let subs = SubscriptionRegistry::new();
        let (c1, rx1) = ctx(1);
        let id = subs.subscribe(&c1, Dataset::Gowalla, P);
        assert_eq!(subs.watchers(Dataset::Gowalla), vec![(id, P)]);
        assert!(subs.watchers(Dataset::EmailEucore).is_empty());

        assert!(subs.push(id, "frame".into()));
        let Ok(Pending::Ready(frame)) = rx1.try_recv() else {
            panic!("push must land on the connection channel");
        };
        assert_eq!(frame, "frame");
        assert_eq!(subs.notifications_sent(), 1);

        // Wrong connection cannot remove it; the owner can.
        assert!(!subs.unsubscribe(id, Some(2)));
        assert!(subs.unsubscribe(id, Some(1)));
        assert_eq!(subs.active(), 0);
        assert!(!subs.push(id, "late".into()));
    }

    #[test]
    fn dead_connections_are_reaped() {
        let subs = SubscriptionRegistry::new();
        let (c1, rx1) = ctx(1);
        let (c2, _rx2) = ctx(2);
        let a = subs.subscribe(&c1, Dataset::Gowalla, P);
        let b = subs.subscribe(&c2, Dataset::Gowalla, P);
        assert_eq!(subs.active_for(Dataset::Gowalla), 2);

        // Conn 1's writer dies: the next push reaps its subscription.
        drop(rx1);
        assert!(!subs.push(a, "frame".into()));
        assert_eq!(subs.active(), 1);

        // Conn 2 disconnects: the reader-exit path drops the rest.
        assert_eq!(subs.drop_connection(2), 1);
        assert_eq!(subs.active(), 0);
        assert!(!subs.push(b, "frame".into()));
    }

    #[test]
    fn shared_ids_stay_unique_across_registries() {
        let ids = Arc::new(AtomicU64::new(0));
        let shard0 = SubscriptionRegistry::with_shared_ids(Arc::clone(&ids));
        let shard1 = SubscriptionRegistry::with_shared_ids(ids);
        let (c, _rx) = ctx(1);
        let a = shard0.subscribe(&c, Dataset::Gowalla, P);
        let b = shard1.subscribe(&c, Dataset::EmailEucore, P);
        let d = shard0.subscribe(&c, Dataset::Gowalla, P);
        assert!(a < b && b < d, "{a} {b} {d}");
        // Each shard only knows its own subscriptions.
        assert!(!shard0.unsubscribe(b, Some(1)));
        assert!(shard1.unsubscribe(b, Some(1)));
    }
}
