//! In-memory spans recorded around the benchmark's calls into each
//! layer's public functions.
//!
//! A span has a name, a start, an end and the span that caused it; the
//! spans of one request share the root span's id. A span's self time is
//! its duration minus the time its child spans cover. Spans stay in
//! memory and are written out once, when the run ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(epoch: Instant) -> Trace {
        Trace {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Opens a span named `name` under `parent`; close it with [`Trace::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.now();
        self.push(name, parent, now, now)
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end = self.now();
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        (out, id)
    }

    pub fn duration(&self, id: SpanId) -> Duration {
        self.spans[id].duration()
    }

    /// Records a span measured elsewhere (e.g. a client-side latency).
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Duration,
        end: Duration,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    pub fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// Duration minus the durations of direct children.
    pub fn self_time(&self, id: SpanId) -> Duration {
        let children: Duration = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration)
            .sum();
        self.spans[id].duration().saturating_sub(children)
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Self times of every span named `name`, in recording order.
    pub fn self_times(&self, name: &str) -> Vec<Duration> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_time(i))
            .collect()
    }

    pub fn total(&self, name: &str) -> Duration {
        self.durations(name).into_iter().sum()
    }

    /// Moves `other`'s spans in (re-basing their parent links); both
    /// traces must share the epoch.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// One line per span: id, parent, name, start and end in
    /// microseconds since the run's epoch.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\tname\tstart_us\tend_us\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}",
                s.name,
                s.start.as_micros(),
                s.end.as_micros()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Trace::new(Instant::now());
        let ms = Duration::from_millis;
        let root = t.push("root", None, ms(0), ms(10));
        t.push("child", Some(root), ms(1), ms(4));
        t.push("child", Some(root), ms(5), ms(7));
        assert_eq!(t.self_time(root), ms(5));
        assert_eq!(t.total("child"), ms(5));
        let mut other = Trace::new(Instant::now());
        let r = other.push("root", None, ms(0), ms(2));
        other.push("child", Some(r), ms(0), ms(1));
        t.absorb(other);
        assert_eq!(t.self_times("root"), vec![ms(5), ms(1)]);
    }
}
