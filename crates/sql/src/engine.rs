//! SQL engine and sessions.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;
use tell_common::{Error, Result};
use tell_core::database::IndexSpec;
use tell_core::{Database, ProcessingNode, Transaction};
use tell_store::{keys, StoreApi};

use crate::exec;
use crate::parser::{parse, Statement};
use crate::row::extract_key;
use crate::schema::{Column, TableSchema};
use crate::types::Value;

/// Result of one statement.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryResult {
    /// Output column names (empty for DML/DDL).
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
    /// Rows affected by DML.
    pub affected: u64,
}

impl QueryResult {
    pub(crate) fn affected(n: u64) -> Self {
        QueryResult { columns: Vec::new(), rows: Vec::new(), affected: n }
    }

    /// Convenience: the single scalar of a one-row/one-column result.
    pub fn scalar(&self) -> Option<&Value> {
        match (self.rows.len(), self.rows.first()) {
            (1, Some(r)) if r.len() == 1 => Some(&r[0]),
            _ => None,
        }
    }
}

/// The SQL layer over a Tell database: schema registry + DDL.
pub struct SqlEngine {
    db: Arc<Database>,
    schemas: RwLock<HashMap<String, Arc<TableSchema>>>,
}

impl SqlEngine {
    /// Wrap a database.
    pub fn new(db: Arc<Database>) -> Arc<SqlEngine> {
        Arc::new(SqlEngine { db, schemas: RwLock::new(HashMap::new()) })
    }

    /// The underlying database.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// A new session (one worker / processing node). Create sessions on the
    /// threads that use them.
    pub fn session(self: &Arc<Self>) -> SqlSession {
        SqlSession { engine: Arc::clone(self), pn: self.db.processing_node() }
    }

    /// Look up a table's SQL schema (loading it from the store if another
    /// node created it).
    pub fn schema(&self, table: &str) -> Result<Arc<TableSchema>> {
        if let Some(s) = self.schemas.read().get(table) {
            return Ok(Arc::clone(s));
        }
        let client = self.db.admin_client();
        match client.get(&keys::meta(&format!("sqlschema/{table}")))? {
            Some((_, raw)) => {
                let schema = Arc::new(TableSchema::decode(&raw)?);
                self.ensure_extractors(&schema)?;
                self.schemas.write().insert(table.to_string(), Arc::clone(&schema));
                Ok(schema)
            }
            None => Err(Error::NotFound),
        }
    }

    /// Re-register extractors for a schema loaded from the store
    /// (extractors are code; every process must rebuild them).
    fn ensure_extractors(&self, schema: &Arc<TableSchema>) -> Result<()> {
        let client = self.db.admin_client();
        let def = self.db.catalog().table(&client, &schema.name)?;
        for idx in &def.indexes {
            if self.db.extractor(idx.id).is_some() {
                continue;
            }
            let cols = if idx.name == "pk" {
                schema.primary_key.clone()
            } else {
                schema
                    .secondary
                    .iter()
                    .find(|(n, _)| *n == idx.name)
                    .map(|(_, c)| c.clone())
                    .ok_or_else(|| {
                        Error::corrupt(format!("index '{}' missing from schema", idx.name))
                    })?
            };
            let s = Arc::clone(schema);
            self.db.register_extractor(
                idx.id,
                Arc::new(move |row: &[u8]| extract_key(&s, &cols, row)),
            );
        }
        Ok(())
    }

    fn create_table(
        &self,
        name: &str,
        columns: &[(String, crate::types::DataType, bool)],
        primary_key: &[String],
    ) -> Result<QueryResult> {
        let cols: Vec<Column> = columns
            .iter()
            .map(|(n, t, nullable)| Column { name: n.clone(), dtype: *t, nullable: *nullable })
            .collect();
        let schema_probe = TableSchema {
            name: name.to_string(),
            columns: cols,
            primary_key: Vec::new(),
            secondary: Vec::new(),
        };
        let pk: Vec<usize> = primary_key
            .iter()
            .map(|c| {
                schema_probe
                    .column_index(c)
                    .ok_or_else(|| Error::Query(format!("unknown PRIMARY KEY column '{c}'")))
            })
            .collect::<Result<_>>()?;
        let schema = Arc::new(TableSchema { primary_key: pk.clone(), ..schema_probe });

        let s = Arc::clone(&schema);
        let pk_cols = pk;
        let spec = IndexSpec {
            name: "pk".to_string(),
            unique: true,
            extractor: Arc::new(move |row: &[u8]| extract_key(&s, &pk_cols, row)),
        };
        self.db.create_table(name, vec![spec])?;
        let client = self.db.admin_client();
        client.insert(&keys::meta(&format!("sqlschema/{name}")), Bytes::from(schema.encode()))?;
        self.schemas.write().insert(name.to_string(), schema);
        Ok(QueryResult::affected(0))
    }

    fn create_index(&self, name: &str, table: &str, columns: &[String]) -> Result<QueryResult> {
        let schema = self.schema(table)?;
        let cols: Vec<usize> = columns
            .iter()
            .map(|c| {
                schema.column_index(c).ok_or_else(|| Error::Query(format!("unknown column '{c}'")))
            })
            .collect::<Result<_>>()?;
        // Persist the updated schema first, then add the core index.
        let mut updated = (*schema).clone();
        updated.secondary.push((name.to_string(), cols.clone()));
        let updated = Arc::new(updated);
        let s = Arc::clone(&updated);
        let c2 = cols;
        self.db.add_index(
            table,
            IndexSpec {
                name: name.to_string(),
                unique: false,
                extractor: Arc::new(move |row: &[u8]| extract_key(&s, &c2, row)),
            },
        )?;
        let client = self.db.admin_client();
        client.put(&keys::meta(&format!("sqlschema/{table}")), Bytes::from(updated.encode()))?;
        self.schemas.write().insert(table.to_string(), updated);
        Ok(QueryResult::affected(0))
    }
}

/// A connection-like handle: one processing node + autocommit execution.
pub struct SqlSession {
    engine: Arc<SqlEngine>,
    pn: ProcessingNode,
}

impl SqlSession {
    /// The engine behind this session.
    pub fn engine(&self) -> &Arc<SqlEngine> {
        &self.engine
    }

    /// The session's processing node (metrics, virtual clock).
    pub fn processing_node(&self) -> &ProcessingNode {
        &self.pn
    }

    /// Execute one statement. DDL runs immediately; DML/queries run in an
    /// autocommit transaction retried on SI conflicts.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        let stmt = parse(sql)?;
        match &stmt {
            Statement::CreateTable { name, columns, primary_key } => {
                self.engine.create_table(name, columns, primary_key)
            }
            Statement::CreateIndex { name, table, columns } => {
                self.engine.create_index(name, table, columns)
            }
            _ => self.pn.run(64, |txn| exec::execute(&self.engine, txn, &stmt)),
        }
    }

    /// Run several statements in one transaction. The closure receives a
    /// [`SqlTxn`]; returning `Err` aborts, committing happens on `Ok`.
    /// SI conflicts retry the whole closure.
    pub fn transaction<T>(
        &self,
        mut body: impl FnMut(&mut SqlTxn<'_, '_>) -> Result<T>,
    ) -> Result<T> {
        self.pn.run(64, |txn| {
            let mut sql_txn = SqlTxn { engine: &self.engine, txn };
            body(&mut sql_txn)
        })
    }
}

/// SQL execution bound to an open transaction.
pub struct SqlTxn<'a, 'p> {
    engine: &'a Arc<SqlEngine>,
    txn: &'a mut Transaction<'p>,
}

impl<'a, 'p> SqlTxn<'a, 'p> {
    /// Execute a DML/query statement inside the transaction.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        let stmt = parse(sql)?;
        exec::execute(self.engine, self.txn, &stmt)
    }

    /// The underlying core transaction (for mixed SQL + programmatic use).
    pub fn raw(&mut self) -> &mut Transaction<'p> {
        self.txn
    }
}
