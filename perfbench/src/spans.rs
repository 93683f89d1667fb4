//! The benchmark's own span recorder: spans are recorded in memory around
//! calls into each layer's public functions (or around socket calls), and
//! reduced to per-layer self times when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. `parent` indexes the recorder's span list.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// A single-threaded recorder; threads record into their own and merge.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// An empty recorder on the same clock, for another thread.
    pub fn fork(&self) -> Recorder {
        Recorder::new(self.epoch)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for request `request`, nested
    /// under the innermost open span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Appends another recorder's spans (same epoch), re-basing parents.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span in milliseconds, grouped by name: the
    /// span's duration minus the part of its interval covered by its
    /// children.
    pub fn self_times_ms(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut covered: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &self.spans[c];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| b > a)
                .collect();
            covered.sort_unstable();
            let (mut union, mut cur): (u64, Option<(u64, u64)>) = (0, None);
            for (a, b) in covered {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        union += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                union += cb - ca;
            }
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(union);
            out.entry(s.name).or_default().push(self_ns as f64 / 1e6);
        }
        out
    }

    /// Writes every span as one JSON line: index, name, start and end
    /// (ns since the recorder's epoch), parent index and request id.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}\n",
                s.name, s.start_ns, s.end_ns, s.request
            ));
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::new(Instant::now());
        r.span("outer", 7, |r| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            r.span("inner", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let t = r.self_times_ms();
        assert!(t["inner"][0] >= 20.0);
        assert!(t["outer"][0] >= 2.0 && t["outer"][0] < 15.0, "{:?}", t);
        assert_eq!(r.spans[1].parent, Some(0));
        assert_eq!(r.spans[1].request, 7);
    }
}
