//! Spans recorded around the benchmark's calls into each layer's public
//! functions. Spans stay in memory and are written out when the run ends;
//! with tracing off, [`Trace::span`] only runs its closure.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Which program and which operation a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tag {
    /// One id per operation (a compile, a query run, an append step, a
    /// set-up); every span of that operation carries it.
    pub op: u64,
    /// Index of the program in the workload's program list.
    pub program: usize,
}

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer and function, e.g. `optimizer.optimize`.
    pub name: &'static str,
    /// Operation and program.
    pub tag: Tag,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the trace started.
    pub start_ns: u64,
    /// Nanoseconds since the trace started.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_op: u64,
}

impl Trace {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Trace {
        Trace {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_op: 0,
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh operation id for `program`.
    pub fn tag(&mut self, program: usize) -> Tag {
        self.next_op += 1;
        Tag {
            op: self.next_op,
            program,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, tag: Tag, f: impl FnOnce(&mut Trace) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            tag,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Like [`Trace::span`], also returning the duration in ns: the span's
    /// own when tracing, else a clock read around `f`.
    pub fn span_timed<T>(
        &mut self,
        name: &'static str,
        tag: Tag,
        f: impl FnOnce(&mut Trace) -> T,
    ) -> (T, u64) {
        if !self.enabled {
            let start = Instant::now();
            let out = f(self);
            return (out, start.elapsed().as_nanos() as u64);
        }
        let idx = self.spans.len();
        let out = self.span(name, tag, f);
        let s = &self.spans[idx];
        (out, s.end_ns - s.start_ns)
    }

    /// Spans with the given name.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Summed duration (ns) of the direct children of every span, indexed
    /// like [`Trace::spans`].
    fn children_ns(&self) -> Vec<u64> {
        let mut sums = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                sums[p] += s.end_ns - s.start_ns;
            }
        }
        sums
    }

    /// Checks that every child lies inside its parent, carries its
    /// parent's operation id, and that a parent's children together take
    /// no longer than the parent.
    pub fn check_nesting(&self) -> Result<(), String> {
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                return Err(format!("span {i} ({}) ends before it starts", s.name));
            }
            let Some(p) = s.parent else { continue };
            let parent = &self.spans[p];
            if p >= i || s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {i} ({}) is not inside its parent {p} ({})",
                    s.name, parent.name
                ));
            }
            if s.tag.op != parent.tag.op {
                return Err(format!(
                    "span {i} ({}) has another operation than its parent {p} ({})",
                    s.name, parent.name
                ));
            }
        }
        for (i, covered) in self.children_ns().into_iter().enumerate() {
            let s = &self.spans[i];
            if covered > s.end_ns - s.start_ns {
                return Err(format!(
                    "children of span {i} ({}) take {covered} ns, longer than its {} ns",
                    s.name,
                    s.end_ns - s.start_ns
                ));
            }
        }
        Ok(())
    }

    /// Writes one JSON object per span; `programs` names the program
    /// indices.
    pub fn write_jsonl(&self, path: &Path, programs: &[String]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let program = programs.get(s.tag.program).map_or("", String::as_str);
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"program\":\"{program}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.tag.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_disabled_records_nothing() {
        let mut t = Trace::new(true);
        let tag = t.tag(0);
        let v = t.span("outer", tag, |t| t.span("inner", tag, |_| 7));
        assert_eq!(v, 7);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        t.check_nesting().unwrap();

        let mut off = Trace::new(false);
        let tag = off.tag(0);
        off.span("outer", tag, |_| ());
        assert!(off.spans().is_empty());
    }
}
