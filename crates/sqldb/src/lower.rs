//! TondIR → SQL AST lowering: the one TondIR walk of the paper's Figure 1
//! pipeline.
//!
//! [`lower_program`] turns an optimized TondIR [`Program`] into the
//! engine's structured [`crate::ast`]: one CTE per rule, constant relations
//! hoisted as `VALUES` CTEs, implicit joins as `WHERE` equalities,
//! outer-join markers as explicit joins, `exists` atoms as `IN` subqueries.
//! Both back ends start from that one [`Query`]. The in-process engine hands
//! it to the shared binder/optimizer ([`Database::prepare_query`], or
//! [`prepare_program`] in one step) with no SQL text, lexer or parser
//! involved; `pytond-sqlgen` prints it as DuckDB / Hyper / LingoDB SQL for
//! export. The printed text parses back to the same AST, so the export and
//! the direct plan cannot drift apart: `tests/differential_prepare.rs`
//! asserts that round trip, and equal EXPLAIN plans and results, over every
//! TPC-H query and hybrid workload.
//!
//! Dialect independence: external functions lower to canonical names
//! (`SUBSTRING`, `LENGTH`, `YEAR`, ...) through the only TondIR
//! external-function table, in `RuleLower::lower_ext`. sqlgen maps those
//! names to each dialect's spelling, and one lowered plan serves all three
//! backend profiles (profile-specific *semantic* gates, e.g. LingoDB's
//! window-function rejection, still run at prepare time).

use crate::ast::{AggName, BinOp, Cte, JoinKind, Query, Select, SelectItem, SqlExpr, TableRef};
use crate::db::{Database, PreparedQuery, Profile};
use pytond_common::hash::FxHashMap;
use pytond_common::{Error, Result};
use pytond_tondir::analysis::SchemaEnv;
use pytond_tondir::{
    AggFunc, Atom, Body, Catalog, Const, OuterKind, Program, Rule, ScalarOp, Term,
};

/// One pending outer-join marker: `(kind, left alias, right alias, ON pairs)`.
type OuterMarker<'a> = (
    &'a OuterKind,
    &'a String,
    &'a String,
    &'a Vec<(String, String)>,
);

/// Variable → lowered SQL expression, keyed by the program's own variable
/// names.
type Bindings<'p> = FxHashMap<&'p str, SqlExpr>;

/// Lowers an optimized TondIR program and prepares it against `db` in one
/// step: the compile-side entry point for the in-process engine.
pub fn prepare_program(
    db: &Database,
    program: &Program,
    catalog: &Catalog,
    profile: Profile,
) -> Result<PreparedQuery> {
    let query = lower_program(program, catalog)?;
    db.prepare_query(&query, profile)
}

/// Lowers a TondIR program into the engine's SQL AST (no text): each rule
/// becomes one CTE (constant relations hoisted as `VALUES` CTEs), and the
/// program's last rule feeds a final `SELECT *`.
pub fn lower_program(program: &Program, catalog: &Catalog) -> Result<Query> {
    if program.rules.is_empty() {
        return Err(Error::CodeGen("empty program".into()));
    }
    let mut env = SchemaEnv::from_catalog(catalog);
    let mut ctes: Vec<Cte> = Vec::new();
    let mut seen_names: Vec<String> = Vec::new();
    let mut const_counter = 0usize;
    for rule in &program.rules {
        if seen_names.contains(&rule.head.rel) {
            return Err(Error::CodeGen(format!(
                "relation '{}' defined twice; the translator must uniquify rule names",
                rule.head.rel
            )));
        }
        let lowerer = RuleLower {
            env: &env,
            const_counter: &mut const_counter,
        };
        let (select, extra_ctes) = lowerer.lower_rule(rule)?;
        ctes.extend(extra_ctes);
        ctes.push(Cte {
            name: rule.head.rel.clone(),
            columns: Some(rule.head.cols.iter().map(|(n, _)| n.clone()).collect()),
            select,
        });
        seen_names.push(rule.head.rel.clone());
        env.define(&rule.head);
    }
    let last = program.rules.last().expect("non-empty");
    let mut body = Select::empty();
    body.items.push(SelectItem::Wildcard);
    body.from.push(TableRef::Table {
        name: last.head.rel.clone(),
        alias: None,
    });
    Ok(Query { ctes, body })
}

/// Folds conjuncts into one left-associative AND chain (the same tree the
/// parser builds from `c1 AND c2 AND c3`).
fn and_join(mut conds: Vec<SqlExpr>) -> Option<SqlExpr> {
    let mut iter = conds.drain(..);
    let first = iter.next()?;
    Some(iter.fold(first, |acc, c| SqlExpr::bin(BinOp::And, acc, c)))
}

struct RuleLower<'a> {
    env: &'a SchemaEnv,
    const_counter: &'a mut usize,
}

impl<'a> RuleLower<'a> {
    /// Lowers one rule body + head into a [`Select`], returning any hoisted
    /// constant-relation CTEs.
    fn lower_rule(self, rule: &Rule) -> Result<(Select, Vec<Cte>)> {
        let mut extra_ctes = Vec::new();
        // Pure constant rule: R(c0) :- (c0 = [...]) becomes a VALUES body.
        if rule.body.atoms.len() == 1 {
            if let Atom::ConstRel { rows, .. } = &rule.body.atoms[0] {
                let mut s = Select::empty();
                s.values = Some(
                    rows.iter()
                        .map(|r| r.iter().map(lower_const).collect())
                        .collect(),
                );
                return Ok((s, extra_ctes));
            }
        }

        // Variable bindings: var → lowered SQL expression.
        let mut bindings = Bindings::default();
        // Extra equality conditions from repeated variables (implicit joins).
        let mut conditions: Vec<SqlExpr> = Vec::new();
        // FROM items in atom order.
        let mut from_items: Vec<TableRef> = Vec::new();
        // Alias of each relation access for outer-join wiring.
        let mut alias_of: FxHashMap<String, usize> = FxHashMap::default(); // alias → from_items idx
        let mut outer_markers: Vec<OuterMarker<'_>> = Vec::new();

        for atom in &rule.body.atoms {
            match atom {
                Atom::Rel { rel, alias, vars } => {
                    let cols = self.env.columns(rel).map_err(|e| {
                        Error::CodeGen(format!("rule '{}': {}", rule.head.rel, e.message()))
                    })?;
                    if cols.len() != vars.len() {
                        return Err(Error::CodeGen(format!(
                            "rule '{}': relation '{rel}' has {} columns, access binds {}",
                            rule.head.rel,
                            cols.len(),
                            vars.len()
                        )));
                    }
                    alias_of.insert(alias.clone(), from_items.len());
                    from_items.push(TableRef::Table {
                        name: rel.clone(),
                        alias: (alias != rel).then(|| alias.clone()),
                    });
                    for (col, var) in cols.iter().zip(vars) {
                        let expr = SqlExpr::qcol(alias, col);
                        match bindings.get(var.as_str()) {
                            Some(prev) => {
                                conditions.push(SqlExpr::bin(BinOp::Eq, prev.clone(), expr));
                            }
                            None => {
                                bindings.insert(var, expr);
                            }
                        }
                    }
                }
                Atom::ConstRel { vars, rows } => {
                    *self.const_counter += 1;
                    let name = format!("const_rel_{}", self.const_counter);
                    let mut values = Select::empty();
                    values.values = Some(
                        rows.iter()
                            .map(|r| r.iter().map(lower_const).collect())
                            .collect(),
                    );
                    extra_ctes.push(Cte {
                        name: name.clone(),
                        columns: Some(vars.clone()),
                        select: values,
                    });
                    alias_of.insert(name.clone(), from_items.len());
                    from_items.push(TableRef::Table {
                        name: name.clone(),
                        alias: None,
                    });
                    for var in vars {
                        let expr = SqlExpr::qcol(&name, var);
                        match bindings.get(var.as_str()) {
                            Some(prev) => {
                                conditions.push(SqlExpr::bin(BinOp::Eq, prev.clone(), expr));
                            }
                            None => {
                                bindings.insert(var, expr);
                            }
                        }
                    }
                }
                Atom::Assign { var, term } => {
                    let lowered = self.lower_term(term, &bindings)?;
                    bindings.insert(var, lowered);
                }
                Atom::Pred(term) => {
                    conditions.push(self.lower_term(term, &bindings)?);
                }
                Atom::Exists {
                    body,
                    keys,
                    negated,
                } => {
                    conditions.push(self.lower_exists(body, keys, *negated, &bindings)?);
                }
                Atom::OuterJoin {
                    kind,
                    left,
                    right,
                    on,
                } => {
                    outer_markers.push((kind, left, right, on));
                }
            }
        }

        // FROM clause: outer-join markers splice explicit JOIN nodes.
        let from = if outer_markers.is_empty() {
            from_items
        } else {
            self.lower_outer_from(from_items, &alias_of, &outer_markers, &bindings)?
        };

        // SELECT list.
        let mut items = Vec::new();
        for (name, var) in &rule.head.cols {
            let expr = bindings.get(var.as_str()).ok_or_else(|| {
                Error::CodeGen(format!(
                    "rule '{}': head variable '{var}' is unbound",
                    rule.head.rel
                ))
            })?;
            items.push(SelectItem::Expr {
                expr: expr.clone(),
                alias: Some(name.clone()),
            });
        }
        let mut s = Select::empty();
        s.distinct = rule.head.distinct;
        s.items = items;
        s.from = from;
        s.where_clause = and_join(conditions);
        if let Some(group) = &rule.head.group {
            s.group_by = group
                .iter()
                .map(|v| {
                    bindings
                        .get(v.as_str())
                        .cloned()
                        .ok_or_else(|| Error::CodeGen(format!("group variable '{v}' unbound")))
                })
                .collect::<Result<_>>()?;
        }
        if let Some(sort) = &rule.head.sort {
            s.order_by =
                sort.iter()
                    .map(|(v, asc)| {
                        let expr = bindings.get(v.as_str()).cloned().ok_or_else(|| {
                            Error::CodeGen(format!("sort variable '{v}' unbound"))
                        })?;
                        Ok((expr, *asc))
                    })
                    .collect::<Result<_>>()?;
        }
        s.limit = rule.head.limit;
        Ok((s, extra_ctes))
    }

    /// Splices outer-join markers into a JOIN chain; relations untouched by
    /// markers stay as separate (comma-join) FROM items, in original order.
    fn lower_outer_from(
        &self,
        from_items: Vec<TableRef>,
        alias_of: &FxHashMap<String, usize>,
        markers: &[OuterMarker<'_>],
        bindings: &Bindings<'_>,
    ) -> Result<Vec<TableRef>> {
        let mut joined: Vec<bool> = vec![false; from_items.len()];
        let mut chain: Option<TableRef> = None;
        for (kind, left, right, on) in markers {
            let li = *alias_of
                .get(*left)
                .ok_or_else(|| Error::CodeGen(format!("outer join alias '{left}' unknown")))?;
            let ri = *alias_of
                .get(*right)
                .ok_or_else(|| Error::CodeGen(format!("outer join alias '{right}' unknown")))?;
            let jkind = match kind {
                OuterKind::Left => JoinKind::Left,
                OuterKind::Right => JoinKind::Right,
                OuterKind::Full => JoinKind::Full,
            };
            let conds: Vec<SqlExpr> =
                on.iter()
                    .map(|(l, r)| {
                        let le = bindings.get(l.as_str()).cloned().ok_or_else(|| {
                            Error::CodeGen(format!("join variable '{l}' unbound"))
                        })?;
                        let re = bindings.get(r.as_str()).cloned().ok_or_else(|| {
                            Error::CodeGen(format!("join variable '{r}' unbound"))
                        })?;
                        Ok(SqlExpr::bin(BinOp::Eq, le, re))
                    })
                    .collect::<Result<_>>()?;
            let on_expr = and_join(conds);
            let base = match chain.take() {
                None => from_items[li].clone(),
                Some(c) => {
                    // Later markers extend the one chain; a left side that
                    // is not already part of it would silently drop a
                    // relation, so reject disjoint outer-join groups.
                    if !joined[li] {
                        return Err(Error::CodeGen(format!(
                            "disjoint outer-join chains are not supported \
                             (alias '{left}' is not part of the join chain)"
                        )));
                    }
                    c
                }
            };
            chain = Some(TableRef::Join {
                left: Box::new(base),
                right: Box::new(from_items[ri].clone()),
                kind: jkind,
                on: on_expr,
            });
            joined[li] = true;
            joined[ri] = true;
        }
        let mut parts = Vec::new();
        if let Some(c) = chain {
            parts.push(c);
        }
        for (i, item) in from_items.into_iter().enumerate() {
            if !joined[i] {
                parts.push(item);
            }
        }
        Ok(parts)
    }

    /// `exists(B)` / `not exists(B)` → `key [NOT] IN (SELECT inner ...)`.
    fn lower_exists(
        &self,
        body: &Body,
        keys: &[(String, String)],
        negated: bool,
        outer_bindings: &Bindings<'_>,
    ) -> Result<SqlExpr> {
        if keys.len() != 1 {
            return Err(Error::CodeGen(
                "exists atoms must correlate on exactly one key (isin)".into(),
            ));
        }
        let mut inner_bindings = Bindings::default();
        let mut inner_from: Vec<TableRef> = Vec::new();
        let mut inner_conds: Vec<SqlExpr> = Vec::new();
        for atom in &body.atoms {
            match atom {
                Atom::Rel { rel, alias, vars } => {
                    let cols = self
                        .env
                        .columns(rel)
                        .map_err(|e| Error::CodeGen(e.message().to_string()))?;
                    inner_from.push(TableRef::Table {
                        name: rel.clone(),
                        alias: (alias != rel).then(|| alias.clone()),
                    });
                    for (col, var) in cols.iter().zip(vars) {
                        let expr = SqlExpr::qcol(alias, col);
                        match inner_bindings.get(var.as_str()) {
                            Some(prev) => {
                                inner_conds.push(SqlExpr::bin(BinOp::Eq, prev.clone(), expr));
                            }
                            None => {
                                inner_bindings.insert(var, expr);
                            }
                        }
                    }
                }
                Atom::Pred(t) => {
                    inner_conds.push(self.lower_term(t, &inner_bindings)?);
                }
                Atom::Assign { var, term } => {
                    let lowered = self.lower_term(term, &inner_bindings)?;
                    inner_bindings.insert(var, lowered);
                }
                other => {
                    return Err(Error::CodeGen(format!(
                        "unsupported atom inside exists: {other:?}"
                    )))
                }
            }
        }
        let (outer_var, inner_var) = &keys[0];
        let outer_expr = outer_bindings
            .get(outer_var.as_str())
            .cloned()
            .ok_or_else(|| Error::CodeGen(format!("exists outer key '{outer_var}' unbound")))?;
        let inner_expr = inner_bindings
            .get(inner_var.as_str())
            .cloned()
            .ok_or_else(|| Error::CodeGen(format!("exists inner key '{inner_var}' unbound")))?;
        let mut sub = Select::empty();
        sub.items.push(SelectItem::Expr {
            expr: inner_expr,
            alias: None,
        });
        sub.from = inner_from;
        sub.where_clause = and_join(inner_conds);
        Ok(SqlExpr::InSubquery {
            expr: Box::new(outer_expr),
            query: Box::new(sub),
            negated,
        })
    }

    // ---------------- terms ----------------

    fn lower_term(&self, t: &Term, bindings: &Bindings<'_>) -> Result<SqlExpr> {
        Ok(match t {
            Term::Var(v) => bindings
                .get(v.as_str())
                .cloned()
                .ok_or_else(|| Error::CodeGen(format!("variable '{v}' unbound")))?,
            Term::Const(c) => lower_const(c),
            Term::Agg { func, arg } => {
                let (name, lowered_arg) = match func {
                    AggFunc::Sum => (AggName::Sum, Some(self.lower_term(arg, bindings)?)),
                    AggFunc::Min => (AggName::Min, Some(self.lower_term(arg, bindings)?)),
                    AggFunc::Max => (AggName::Max, Some(self.lower_term(arg, bindings)?)),
                    AggFunc::Avg => (AggName::Avg, Some(self.lower_term(arg, bindings)?)),
                    AggFunc::Count => {
                        // count over a bare "1" constant means COUNT(*).
                        if matches!(**arg, Term::Const(Const::Int(1))) {
                            (AggName::Count, None)
                        } else {
                            (AggName::Count, Some(self.lower_term(arg, bindings)?))
                        }
                    }
                    AggFunc::CountDistinct => {
                        let inner = self.lower_term(arg, bindings)?;
                        return Ok(SqlExpr::Agg {
                            func: AggName::Count,
                            arg: Some(Box::new(inner)),
                            distinct: true,
                        });
                    }
                };
                SqlExpr::Agg {
                    func: name,
                    arg: lowered_arg.map(Box::new),
                    distinct: false,
                }
            }
            Term::Ext { func, args } => self.lower_ext(func, args, bindings)?,
            Term::If { cond, then, els } => SqlExpr::Case {
                arms: vec![(
                    self.lower_term(cond, bindings)?,
                    self.lower_term(then, bindings)?,
                )],
                else_value: Some(Box::new(self.lower_term(els, bindings)?)),
            },
            Term::Bin { op, lhs, rhs } => {
                if matches!(op, ScalarOp::Like | ScalarOp::NotLike) {
                    let Term::Const(Const::Str(pattern)) = rhs.as_ref() else {
                        return Err(Error::CodeGen(
                            "LIKE requires a string-literal pattern".into(),
                        ));
                    };
                    return Ok(SqlExpr::Like {
                        expr: Box::new(self.lower_term(lhs, bindings)?),
                        pattern: pattern.clone(),
                        negated: matches!(op, ScalarOp::NotLike),
                    });
                }
                SqlExpr::bin(
                    lower_op(*op),
                    self.lower_term(lhs, bindings)?,
                    self.lower_term(rhs, bindings)?,
                )
            }
            Term::Not(inner) => SqlExpr::Not(Box::new(self.lower_term(inner, bindings)?)),
            Term::IsNull(inner) => SqlExpr::IsNull {
                expr: Box::new(self.lower_term(inner, bindings)?),
                negated: false,
            },
        })
    }

    /// External functions lower to the canonical spellings every dialect's
    /// rendering binds back to (see module docs).
    fn lower_ext(&self, func: &str, args: &[Term], bindings: &Bindings<'_>) -> Result<SqlExpr> {
        let lowered: Vec<SqlExpr> = args
            .iter()
            .map(|a| self.lower_term(a, bindings))
            .collect::<Result<_>>()?;
        if func == "uid" {
            let order_by = lowered.first().map(|e| (e.clone(), true)).into_iter();
            return Ok(SqlExpr::RowNumber {
                order_by: order_by.collect(),
            });
        }
        let name = match func {
            "year" => "YEAR",
            "month" => "MONTH",
            "day" => "DAY",
            "substr" => "SUBSTRING",
            "strlen" => "LENGTH",
            "round" => "ROUND",
            "abs" => "ABS",
            "floor" => "FLOOR",
            "ceil" => "CEIL",
            "sqrt" => "SQRT",
            "power" => "POWER",
            "upper" => "UPPER",
            "lower" => "LOWER",
            "coalesce" => "COALESCE",
            "add_months" => "ADD_MONTHS",
            "add_years" => "ADD_YEARS",
            "add_days" => "ADD_DAYS",
            "strpos" => "STRPOS",
            other => {
                return Err(Error::CodeGen(format!(
                    "unknown external function '{other}'"
                )))
            }
        };
        Ok(SqlExpr::Func {
            name: name.to_string(),
            args: lowered,
        })
    }
}

fn lower_op(op: ScalarOp) -> BinOp {
    match op {
        ScalarOp::Add => BinOp::Add,
        ScalarOp::Sub => BinOp::Sub,
        ScalarOp::Mul => BinOp::Mul,
        ScalarOp::Div => BinOp::Div,
        ScalarOp::Mod => BinOp::Mod,
        ScalarOp::Eq => BinOp::Eq,
        ScalarOp::Ne => BinOp::Ne,
        ScalarOp::Lt => BinOp::Lt,
        ScalarOp::Le => BinOp::Le,
        ScalarOp::Gt => BinOp::Gt,
        ScalarOp::Ge => BinOp::Ge,
        ScalarOp::And => BinOp::And,
        ScalarOp::Or => BinOp::Or,
        ScalarOp::Concat => BinOp::Concat,
        // LIKE / NOT LIKE are handled structurally in `lower_term`.
        ScalarOp::Like | ScalarOp::NotLike => unreachable!("LIKE lowered structurally"),
    }
}

fn lower_const(c: &Const) -> SqlExpr {
    match c {
        Const::Int(i) => SqlExpr::Int(*i),
        Const::Float(f) => SqlExpr::Float(*f),
        Const::Bool(b) => SqlExpr::Bool(*b),
        Const::Str(s) => SqlExpr::Str(s.clone()),
        Const::Date(d) => SqlExpr::DateLit(*d),
        Const::Null => SqlExpr::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::EngineConfig;
    use pytond_common::{Column, DType, Relation, Value};
    use pytond_tondir::builder::{assign, cmp, head, rel, rule};
    use pytond_tondir::{Head, TableSchema};

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

    fn db() -> Database {
        let db = Database::new();
        db.register(
            "r",
            Relation::new(vec![
                ("a".into(), Column::from_i64(vec![1, 2, 3, 4])),
                ("b".into(), Column::from_f64(vec![1.0, 2.0, 3.0, 4.0])),
                ("c".into(), Column::from_f64(vec![0.5, 0.5, 0.5, 0.5])),
            ])
            .unwrap(),
        );
        db
    }

    #[test]
    fn aggregation_rule_lowers_and_runs() {
        let p = Program {
            rules: vec![rule(
                Head {
                    rel: "r1".into(),
                    cols: vec![("a".into(), "a".into()), ("s".into(), "s".into())],
                    group: Some(vec!["a".into()]),
                    sort: Some(vec![("a".into(), true)]),
                    limit: None,
                    distinct: false,
                },
                vec![
                    rel("r", "r", &["a", "b", "c"]),
                    assign("s", Term::agg(AggFunc::Sum, Term::var("b"))),
                ],
            )],
        };
        let db = db();
        let prepared = prepare_program(&db, &p, &catalog(), Profile::Vectorized).unwrap();
        let out = db
            .execute_prepared(&prepared, &EngineConfig::default())
            .unwrap();
        assert_eq!(out.num_rows(), 4);
        assert_eq!(out.names(), vec!["a", "s"]);
        assert_eq!(out.column("s").unwrap().get(0), Value::Float(1.0));
    }

    #[test]
    fn lowered_ast_matches_parsed_sqlgen_output() {
        // The structural guarantee underpinning the differential suite: the
        // lowered AST for a filter + sort rule is exactly what parsing the
        // sqlgen text yields.
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
        let lowered = lower_program(&p, &catalog()).unwrap();
        let parsed = crate::parser::parse_sql(
            "WITH out(a) AS (SELECT r.a AS a FROM r WHERE r.b > 5.0 ORDER BY r.a DESC LIMIT 10) \
             SELECT * FROM out",
        )
        .unwrap();
        assert_eq!(lowered, parsed);
    }

    #[test]
    fn duplicate_rule_names_rejected() {
        let r1 = rule(head("dup", &["a"]), vec![rel("r", "r", &["a", "b", "c"])]);
        let p = Program {
            rules: vec![r1.clone(), r1],
        };
        assert!(lower_program(&p, &catalog()).is_err());
    }

    #[test]
    fn empty_program_rejected() {
        assert!(lower_program(&Program::default(), &catalog()).is_err());
    }

    #[test]
    fn exists_lowers_to_in_subquery() {
        let p = Program {
            rules: vec![rule(
                head("out", &["a"]),
                vec![
                    rel("r", "r", &["a", "b", "c"]),
                    Atom::Exists {
                        body: Body::new(vec![
                            rel("r", "inner1", &["a2", "b2", "c2"]),
                            cmp(ScalarOp::Gt, Term::var("b2"), Term::float(1.0)),
                        ]),
                        keys: vec![("a".into(), "a2".into())],
                        negated: true,
                    },
                ],
            )],
        };
        let lowered = lower_program(&p, &catalog()).unwrap();
        let parsed = crate::parser::parse_sql(
            "WITH out(a) AS (SELECT r.a AS a FROM r WHERE r.a NOT IN \
             (SELECT inner1.a FROM r AS inner1 WHERE inner1.b > 1.0)) SELECT * FROM out",
        )
        .unwrap();
        assert_eq!(lowered, parsed);
    }

    #[test]
    fn const_rel_hoists_values_cte() {
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
        let lowered = lower_program(&p, &catalog()).unwrap();
        assert_eq!(lowered.ctes.len(), 2);
        assert_eq!(lowered.ctes[0].name, "const_rel_1");
        let db = db();
        let prepared = prepare_program(&db, &p, &catalog(), Profile::Vectorized).unwrap();
        let out = db
            .execute_prepared(&prepared, &EngineConfig::default())
            .unwrap();
        assert_eq!(out.num_rows(), 8); // 4 rows × 2 constants
    }
}
