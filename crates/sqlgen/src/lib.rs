//! SQL export: a per-dialect printer over the engine's SQL AST (paper,
//! Section III-E).
//!
//! TondIR has one lowering, [`lower_program`]: each rule becomes one CTE in
//! a `WITH` chain and the program's last rule feeds the final
//! `SELECT * FROM <last>`. Constant relations are hoisted into
//! `name(cols) AS (VALUES ...)` CTEs (exactly the paper's Figure 2 shape).
//! Implicit inner joins (shared variables between relation accesses) become
//! equality conjuncts in `WHERE`; outer-join marker atoms become explicit
//! `LEFT/RIGHT/FULL JOIN ... ON` syntax; `exists` atoms become
//! `[NOT] IN (SELECT ...)` predicates; `uid()` becomes
//! `row_number() OVER (...)`. The in-process engine prepares that [`Query`]
//! directly; this crate only prints it. [`generate_sql`] is lower, then
//! [`print()`], and the printed text parses back to the same AST (up to the
//! parser's `SUBSTR` and `CHAR_LENGTH` spelling aliases).
//!
//! # Backend adaptation: the three dialect profiles
//!
//! The [`Dialect`] controls the spelling of external functions, mirroring the
//! paper's "minor details, mostly in the interface of their external
//! functions". The three profiles pair 1:1 with the engine's execution
//! profiles in `pytond-sqldb` (`duckdb-sim` / `hyper-sim` / `lingodb-sim`):
//!
//! | Rendering | [`Dialect::DuckDb`] | [`Dialect::Hyper`] | [`Dialect::LingoDb`] |
//! |---|---|---|---|
//! | substring | `substr(s, start, len)` | `SUBSTRING(s FROM start FOR len)` | as Hyper |
//! | date parts | `year(d)`, `month(d)`, `day(d)` | `EXTRACT(YEAR FROM d)`, … | as Hyper |
//! | string length | `length(s)` | `CHAR_LENGTH(s)` | as Hyper |
//! | everything else | shared standard spellings (`ROUND`, `ABS`, `COALESCE`, `ADD_MONTHS`, `POWER`, `STRPOS`, …) | — | — |
//!
//! Shared across all dialects: identifiers quote with `"double quotes"` when
//! they are reserved words or not plain lower-case identifiers
//! ([`quote_ident`]); date constants render as `DATE 'YYYY-MM-DD'`; float
//! constants render in their shortest round-trip form, so they re-lex as
//! the same `f64`; `uid()` renders as `row_number() OVER (...)`. The
//! LingoDB profile's *semantic* gaps — no window functions, no aggregates
//! over disjunctive CASE conditions — are enforced by the engine
//! (`pytond-sqldb`'s `lingodb-sim` checks), not by changing the generated
//! text: LingoDB SQL is otherwise the standard-leaning Hyper spelling. The
//! README's "SQL dialects" section carries the same table for quick
//! reference.

#![warn(missing_docs)]

use pytond_common::{date, Error, Result};
use pytond_sqldb::ast::{AggName, BinOp, JoinKind, Query, Select, SelectItem, SqlExpr, TableRef};
use pytond_sqldb::lower::lower_program;
use pytond_tondir::{Catalog, Program};
use std::fmt::Write;

// The unit tests build TondIR programs through `super::*`.
#[cfg(test)]
use pytond_tondir::{Atom, Const, OuterKind, ScalarOp, Term};

/// Target SQL dialect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Dialect {
    /// DuckDB-style spellings (`substr`, `year(d)`).
    #[default]
    DuckDb,
    /// Hyper-style spellings (`SUBSTRING ... FROM ... FOR`, `EXTRACT`).
    Hyper,
    /// LingoDB-style (standard-leaning, like Hyper).
    LingoDb,
}

/// Generates the full SQL statement for a TondIR program: the shared
/// lowering, printed in `dialect`.
pub fn generate_sql(program: &Program, catalog: &Catalog, dialect: Dialect) -> Result<String> {
    print(&lower_program(program, catalog)?, dialect)
}

/// Prints a query as `dialect` SQL text. Covers the AST shapes
/// [`lower_program`] emits; any other construct is an [`Error::CodeGen`].
pub fn print(query: &Query, dialect: Dialect) -> Result<String> {
    let mut printer = Printer {
        dialect,
        out: String::new(),
    };
    printer.query(query)?;
    Ok(printer.out)
}

const RESERVED: &[&str] = &[
    "select", "from", "where", "group", "by", "having", "order", "limit", "join", "inner", "left",
    "right", "full", "cross", "on", "and", "or", "not", "in", "is", "between", "like", "exists",
    "union", "as", "asc", "desc", "distinct", "with", "when", "then", "else", "end", "values",
    "case", "null", "true", "false", "date", "cast", "interval", "sum", "min", "max", "avg",
    "count",
];

/// Quotes an identifier when it is not a plain lower-case word.
pub fn quote_ident(name: &str) -> String {
    let mut out = String::new();
    push_ident(&mut out, name);
    out
}

fn push_ident(out: &mut String, name: &str) {
    let plain = name.chars().next().is_some_and(|c| !c.is_ascii_digit())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        && !RESERVED.iter().any(|r| r.eq_ignore_ascii_case(name));
    if plain {
        out.push_str(name);
    } else {
        out.push('"');
        out.push_str(&name.replace('"', "\"\""));
        out.push('"');
    }
}

/// How a dialect spells one function call.
enum Spelling<'a> {
    /// `name(a, b, ...)`.
    Call(&'a str),
    /// `EXTRACT(FIELD FROM d)`, the field being the canonical name.
    Extract,
    /// `SUBSTRING(s FROM start FOR len)`.
    FromFor,
}

/// The dialect spelling table over the canonical [`SqlExpr::Func`] names
/// the lowering emits. Functions not listed print under their canonical
/// name in every dialect.
fn spelling(dialect: Dialect, name: &str) -> Spelling<'_> {
    let (duckdb, standard) = match name {
        "YEAR" => (Spelling::Call("year"), Spelling::Extract),
        "MONTH" => (Spelling::Call("month"), Spelling::Extract),
        "DAY" => (Spelling::Call("day"), Spelling::Extract),
        "SUBSTRING" => (Spelling::Call("substr"), Spelling::FromFor),
        "LENGTH" => (Spelling::Call("length"), Spelling::Call("CHAR_LENGTH")),
        _ => return Spelling::Call(name),
    };
    if dialect == Dialect::DuckDb {
        duckdb
    } else {
        standard
    }
}

/// Binding level of comparisons, `IS NULL`, `LIKE` and `IN` in [`level`].
const CMP: u8 = 4;

/// How tightly an expression's top operator binds in the engine parser's
/// grammar (higher binds tighter). A child whose level is below its slot's
/// minimum prints in parentheses, so the text parses back to the same tree.
fn level(e: &SqlExpr) -> u8 {
    match e {
        SqlExpr::Bin { op: BinOp::Or, .. } => 1,
        SqlExpr::Bin { op: BinOp::And, .. } => 2,
        SqlExpr::Not(_) => 3,
        SqlExpr::Bin {
            op: BinOp::Add | BinOp::Sub | BinOp::Concat,
            ..
        } => 5,
        SqlExpr::Bin {
            op: BinOp::Mul | BinOp::Div | BinOp::Mod,
            ..
        } => 6,
        SqlExpr::Bin { .. }
        | SqlExpr::IsNull { .. }
        | SqlExpr::Like { .. }
        | SqlExpr::InSubquery { .. } => CMP,
        _ => 7,
    }
}

fn unprintable(node: &impl std::fmt::Debug) -> Error {
    Error::CodeGen(format!("the SQL printer has no spelling for {node:?}"))
}

/// Appends one query's text to `out`.
struct Printer {
    dialect: Dialect,
    out: String,
}

impl Printer {
    fn query(&mut self, q: &Query) -> Result<()> {
        for (i, cte) in q.ctes.iter().enumerate() {
            self.out.push_str(if i == 0 { "WITH " } else { ",\n" });
            push_ident(&mut self.out, &cte.name);
            if let Some(cols) = &cte.columns {
                self.out.push('(');
                self.list(cols, |p, c| {
                    push_ident(&mut p.out, c);
                    Ok(())
                })?;
                self.out.push(')');
            }
            self.out.push_str(" AS (\n  ");
            self.select(&cte.select, "\n  ")?;
            self.out.push_str("\n)");
        }
        if !q.ctes.is_empty() {
            self.out.push('\n');
        }
        self.select(&q.body, " ")
    }

    /// Prints `items` comma-separated.
    fn list<T>(
        &mut self,
        items: &[T],
        mut each: impl FnMut(&mut Self, &T) -> Result<()>,
    ) -> Result<()> {
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            each(self, item)?;
        }
        Ok(())
    }

    /// Prints a select; `sep` goes before each clause after the first (a
    /// newline plus indentation inside a CTE, a space inline).
    fn select(&mut self, s: &Select, sep: &str) -> Result<()> {
        if let Some(rows) = &s.values {
            self.out.push_str("VALUES ");
            return self.list(rows, |p, row| {
                p.out.push('(');
                p.list(row, |p, e| p.expr(e, 0))?;
                p.out.push(')');
                Ok(())
            });
        }
        if let Some(having) = &s.having {
            return Err(unprintable(having));
        }
        self.out.push_str(if s.distinct {
            "SELECT DISTINCT "
        } else {
            "SELECT "
        });
        self.list(&s.items, Self::item)?;
        if !s.from.is_empty() {
            let _ = write!(self.out, "{sep}FROM ");
            self.list(&s.from, Self::table_ref)?;
        }
        if let Some(w) = &s.where_clause {
            let _ = write!(self.out, "{sep}WHERE ");
            self.expr(w, 0)?;
        }
        if !s.group_by.is_empty() {
            let _ = write!(self.out, "{sep}GROUP BY ");
            self.list(&s.group_by, |p, e| p.expr(e, 0))?;
        }
        if !s.order_by.is_empty() {
            let _ = write!(self.out, "{sep}ORDER BY ");
            self.order_keys(&s.order_by)?;
        }
        if let Some(n) = s.limit {
            let _ = write!(self.out, "{sep}LIMIT {n}");
        }
        Ok(())
    }

    fn item(&mut self, item: &SelectItem) -> Result<()> {
        match item {
            SelectItem::Wildcard => self.out.push('*'),
            SelectItem::Expr { expr, alias } => {
                self.expr(expr, 0)?;
                if let Some(alias) = alias {
                    self.out.push_str(" AS ");
                    push_ident(&mut self.out, alias);
                }
            }
            other => return Err(unprintable(other)),
        }
        Ok(())
    }

    fn table_ref(&mut self, t: &TableRef) -> Result<()> {
        match t {
            TableRef::Table { name, alias } => {
                push_ident(&mut self.out, name);
                if let Some(alias) = alias {
                    self.out.push_str(" AS ");
                    push_ident(&mut self.out, alias);
                }
            }
            // The lowering's outer-join chains: the parser reads them
            // left-deep, with a plain table on the right of each join.
            TableRef::Join {
                left,
                right,
                kind: kind @ (JoinKind::Left | JoinKind::Right | JoinKind::Full),
                on: Some(on),
            } if matches!(**right, TableRef::Table { .. }) => {
                self.table_ref(left)?;
                self.out.push_str(match kind {
                    JoinKind::Left => " LEFT JOIN ",
                    JoinKind::Right => " RIGHT JOIN ",
                    _ => " FULL OUTER JOIN ",
                });
                self.table_ref(right)?;
                self.out.push_str(" ON ");
                self.expr(on, 0)?;
            }
            other => return Err(unprintable(other)),
        }
        Ok(())
    }

    fn order_keys(&mut self, keys: &[(SqlExpr, bool)]) -> Result<()> {
        self.list(keys, |p, (e, asc)| {
            p.expr(e, 0)?;
            p.out.push_str(if *asc { " ASC" } else { " DESC" });
            Ok(())
        })
    }

    fn string(&mut self, s: &str) {
        self.out.push('\'');
        self.out.push_str(&s.replace('\'', "''"));
        self.out.push('\'');
    }

    /// Prints `e`, in parentheses when it binds looser than `min` (see
    /// [`level`]).
    fn expr(&mut self, e: &SqlExpr, min: u8) -> Result<()> {
        let lvl = level(e);
        if lvl < min {
            self.out.push('(');
            self.expr(e, 0)?;
            self.out.push(')');
            return Ok(());
        }
        match e {
            SqlExpr::Column { qualifier, name } => {
                if let Some(q) = qualifier {
                    push_ident(&mut self.out, q);
                    self.out.push('.');
                }
                push_ident(&mut self.out, name);
            }
            SqlExpr::Int(i) => {
                let _ = write!(self.out, "{i}");
            }
            // `{:?}` is the shortest text that parses back to the same f64,
            // and always carries a `.` or an exponent, so it re-lexes as a
            // float.
            SqlExpr::Float(f) if f.is_finite() => {
                let _ = write!(self.out, "{f:?}");
            }
            SqlExpr::Str(s) => self.string(s),
            SqlExpr::Bool(b) => self.out.push_str(if *b { "TRUE" } else { "FALSE" }),
            SqlExpr::Null => self.out.push_str("NULL"),
            SqlExpr::DateLit(d) => {
                let _ = write!(self.out, "DATE '{}'", date::format(*d));
            }
            SqlExpr::Bin { op, left, right } => {
                // Comparisons do not chain; every other operator associates
                // to the left.
                let (lmin, rmin) = if lvl == CMP {
                    (CMP + 1, CMP + 1)
                } else {
                    (lvl, lvl + 1)
                };
                self.expr(left, lmin)?;
                let _ = write!(self.out, " {} ", op.sql());
                self.expr(right, rmin)?;
            }
            SqlExpr::Not(inner) => {
                self.out.push_str("NOT (");
                self.expr(inner, 0)?;
                self.out.push(')');
            }
            SqlExpr::IsNull { expr, negated } => {
                self.expr(expr, CMP + 1)?;
                self.out
                    .push_str(if *negated { " IS NOT NULL" } else { " IS NULL" });
            }
            SqlExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                self.expr(expr, CMP + 1)?;
                self.out
                    .push_str(if *negated { " NOT LIKE " } else { " LIKE " });
                self.string(pattern);
            }
            SqlExpr::InSubquery {
                expr,
                query,
                negated,
            } => {
                self.expr(expr, CMP + 1)?;
                self.out
                    .push_str(if *negated { " NOT IN (" } else { " IN (" });
                self.select(query, " ")?;
                self.out.push(')');
            }
            SqlExpr::Case { arms, else_value } => {
                self.out.push_str("CASE");
                for (cond, value) in arms {
                    self.out.push_str(" WHEN ");
                    self.expr(cond, 0)?;
                    self.out.push_str(" THEN ");
                    self.expr(value, 0)?;
                }
                if let Some(value) = else_value {
                    self.out.push_str(" ELSE ");
                    self.expr(value, 0)?;
                }
                self.out.push_str(" END");
            }
            SqlExpr::Agg {
                func,
                arg,
                distinct,
            } => {
                self.out.push_str(match func {
                    AggName::Sum => "SUM(",
                    AggName::Min => "MIN(",
                    AggName::Max => "MAX(",
                    AggName::Avg => "AVG(",
                    AggName::Count => "COUNT(",
                });
                match arg {
                    None => self.out.push('*'),
                    Some(arg) => {
                        if *distinct {
                            self.out.push_str("DISTINCT ");
                        }
                        self.expr(arg, 0)?;
                    }
                }
                self.out.push(')');
            }
            SqlExpr::Func { name, args } => self.func(name, args)?,
            SqlExpr::RowNumber { order_by } => {
                self.out.push_str("row_number() OVER (");
                if !order_by.is_empty() {
                    self.out.push_str("ORDER BY ");
                    self.order_keys(order_by)?;
                }
                self.out.push(')');
            }
            other => return Err(unprintable(other)),
        }
        Ok(())
    }

    /// A function call in the dialect's spelling (see [`spelling`]).
    fn func(&mut self, name: &str, args: &[SqlExpr]) -> Result<()> {
        match (spelling(self.dialect, name), args) {
            (Spelling::Call(spelled), _) => {
                self.out.push_str(spelled);
                self.out.push('(');
                self.list(args, |p, a| p.expr(a, 0))?;
            }
            (Spelling::Extract, [d]) => {
                let _ = write!(self.out, "EXTRACT({name} FROM ");
                self.expr(d, 0)?;
            }
            (Spelling::FromFor, [s, start, len]) => {
                let _ = write!(self.out, "{name}(");
                self.expr(s, 0)?;
                self.out.push_str(" FROM ");
                self.expr(start, 0)?;
                self.out.push_str(" FOR ");
                self.expr(len, 0)?;
            }
            _ => {
                return Err(Error::CodeGen(format!(
                    "{name} called with {} arguments",
                    args.len()
                )))
            }
        }
        self.out.push(')');
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pytond_common::DType;
    use pytond_tondir::builder::*;
    use pytond_tondir::{AggFunc, Head, TableSchema};

    fn catalog() -> Catalog {
        Catalog::new().with(TableSchema::new(
            "r",
            vec![
                ("a".into(), DType::Int),
                ("b".into(), DType::Float),
                ("c".into(), DType::Float),
            ],
        ))
    }

    #[test]
    fn paper_example_aggregation_rule() {
        // R1(a, s) :- R(a, b, c), (s=sum(b)).  →  WITH R1(a, s) AS (SELECT ...)
        let p = Program {
            rules: vec![rule(
                Head {
                    rel: "r1".into(),
                    cols: vec![("a".into(), "a".into()), ("s".into(), "s".into())],
                    group: Some(vec!["a".into()]),
                    sort: None,
                    limit: None,
                    distinct: false,
                },
                vec![
                    rel("r", "r", &["a", "b", "c"]),
                    assign("s", Term::agg(AggFunc::Sum, Term::var("b"))),
                ],
            )],
        };
        let sql = generate_sql(&p, &catalog(), Dialect::DuckDb).unwrap();
        assert!(sql.contains("WITH r1(a, s) AS ("), "{sql}");
        assert!(sql.contains("SUM(r.b) AS s"), "{sql}");
        assert!(sql.contains("GROUP BY r.a"), "{sql}");
        assert!(sql.trim_end().ends_with("SELECT * FROM r1"), "{sql}");
    }

    #[test]
    fn implicit_join_becomes_where_equality() {
        let p = Program {
            rules: vec![rule(
                head("out", &["x"]),
                vec![
                    rel("r", "t1", &["k", "x", "c1"]),
                    rel("r", "t2", &["k", "y", "c2"]),
                ],
            )],
        };
        let sql = generate_sql(&p, &catalog(), Dialect::DuckDb).unwrap();
        assert!(sql.contains("FROM r AS t1, r AS t2"), "{sql}");
        assert!(sql.contains("WHERE t1.a = t2.a"), "{sql}");
    }

    #[test]
    fn filters_and_sort_limit() {
        let p = Program {
            rules: vec![rule(
                Head {
                    rel: "out".into(),
                    cols: vec![("a".into(), "a".into())],
                    group: None,
                    sort: Some(vec![("a".into(), false)]),
                    limit: Some(10),
                    distinct: false,
                },
                vec![
                    rel("r", "r", &["a", "b", "c"]),
                    cmp(ScalarOp::Gt, Term::var("b"), Term::float(5.0)),
                ],
            )],
        };
        let sql = generate_sql(&p, &catalog(), Dialect::DuckDb).unwrap();
        assert!(sql.contains("WHERE r.b > 5.0"), "{sql}");
        assert!(sql.contains("ORDER BY r.a DESC"), "{sql}");
        assert!(sql.contains("LIMIT 10"), "{sql}");
    }

    #[test]
    fn const_rel_hoisted_as_values_cte() {
        let p = Program {
            rules: vec![rule(
                head("out", &["a", "c0"]),
                vec![
                    rel("r", "r", &["a", "b", "c"]),
                    Atom::ConstRel {
                        vars: vec!["c0".into()],
                        rows: vec![vec![Const::Int(0)], vec![Const::Int(1)]],
                    },
                ],
            )],
        };
        let sql = generate_sql(&p, &catalog(), Dialect::DuckDb).unwrap();
        assert!(
            sql.contains("const_rel_1(c0) AS (\n  VALUES (0), (1)\n)"),
            "{sql}"
        );
        assert!(sql.contains("FROM r, const_rel_1"), "{sql}");
    }

    #[test]
    fn exists_becomes_in_subquery() {
        let p = Program {
            rules: vec![rule(
                head("out", &["a"]),
                vec![
                    rel("r", "r", &["a", "b", "c"]),
                    Atom::Exists {
                        body: pytond_tondir::Body::new(vec![
                            rel("r", "inner1", &["a2", "b2", "c2"]),
                            cmp(ScalarOp::Gt, Term::var("b2"), Term::float(1.0)),
                        ]),
                        keys: vec![("a".into(), "a2".into())],
                        negated: true,
                    },
                ],
            )],
        };
        let sql = generate_sql(&p, &catalog(), Dialect::DuckDb).unwrap();
        assert!(
            sql.contains("r.a NOT IN (SELECT inner1.a FROM r AS inner1 WHERE inner1.b > 1.0)"),
            "{sql}"
        );
    }

    #[test]
    fn outer_join_marker_becomes_left_join() {
        let p = Program {
            rules: vec![rule(
                head("out", &["x", "y"]),
                vec![
                    rel("r", "t1", &["k1", "x", "c1"]),
                    rel("r", "t2", &["k2", "y", "c2"]),
                    Atom::OuterJoin {
                        kind: OuterKind::Left,
                        left: "t1".into(),
                        right: "t2".into(),
                        on: vec![("k1".into(), "k2".into())],
                    },
                ],
            )],
        };
        let sql = generate_sql(&p, &catalog(), Dialect::DuckDb).unwrap();
        assert!(
            sql.contains("FROM r AS t1 LEFT JOIN r AS t2 ON t1.a = t2.a"),
            "{sql}"
        );
    }

    #[test]
    fn dialects_differ_in_ext_functions() {
        let p = Program {
            rules: vec![rule(
                head("out", &["y"]),
                vec![
                    rel("r", "r", &["a", "b", "c"]),
                    assign(
                        "y",
                        Term::Ext {
                            func: "substr".into(),
                            args: vec![Term::var("a"), Term::int(1), Term::int(2)],
                        },
                    ),
                ],
            )],
        };
        let duck = generate_sql(&p, &catalog(), Dialect::DuckDb).unwrap();
        let hyper = generate_sql(&p, &catalog(), Dialect::Hyper).unwrap();
        assert!(duck.contains("substr(r.a, 1, 2)"), "{duck}");
        assert!(hyper.contains("SUBSTRING(r.a FROM 1 FOR 2)"), "{hyper}");
    }

    #[test]
    fn uid_renders_row_number() {
        let p = Program {
            rules: vec![rule(
                head("out", &["a", "id"]),
                vec![
                    rel("r", "r", &["a", "b", "c"]),
                    assign(
                        "id",
                        Term::Ext {
                            func: "uid".into(),
                            args: vec![],
                        },
                    ),
                ],
            )],
        };
        let sql = generate_sql(&p, &catalog(), Dialect::DuckDb).unwrap();
        assert!(sql.contains("row_number() OVER ()"), "{sql}");
    }

    #[test]
    fn duplicate_rule_names_rejected() {
        let r1 = rule(head("dup", &["a"]), vec![rel("r", "r", &["a", "b", "c"])]);
        let p = Program {
            rules: vec![r1.clone(), r1],
        };
        assert!(generate_sql(&p, &catalog(), Dialect::DuckDb).is_err());
    }

    #[test]
    fn quoting_of_odd_identifiers() {
        assert_eq!(quote_ident("abc"), "abc");
        assert_eq!(quote_ident("select"), "\"select\"");
        assert_eq!(quote_ident("7"), "\"7\"");
        assert_eq!(quote_ident("my col"), "\"my col\"");
    }

    #[test]
    fn if_renders_case_when() {
        let p = Program {
            rules: vec![rule(
                head("out", &["v"]),
                vec![
                    rel("r", "r", &["a", "b", "c"]),
                    assign(
                        "v",
                        Term::If {
                            cond: Box::new(Term::bin(ScalarOp::Eq, Term::var("a"), Term::int(1))),
                            then: Box::new(Term::var("b")),
                            els: Box::new(Term::int(0)),
                        },
                    ),
                ],
            )],
        };
        let sql = generate_sql(&p, &catalog(), Dialect::DuckDb).unwrap();
        assert!(
            sql.contains("CASE WHEN r.a = 1 THEN r.b ELSE 0 END"),
            "{sql}"
        );
    }
}
