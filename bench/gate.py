#!/usr/bin/env python3
"""CI perf gate: checks bench --json reports against bench/gates.json.

Usage: python3 bench/gate.py REPORT_DIR

REPORT_DIR holds one <binary>.json per bench binary (bench_* --smoke
--json=REPORT_DIR/<binary>.json). Every report must parse. Each entry of
bench/gates.json, next to this script, selects cells and compares them
with a bound:

  report  bench binary whose report is read
  table   title prefix, or a list of prefixes (each must match; every
          matching table is checked on its own)
  rows    first-cell filter: a value, {"prefix": s}, {"contains": s} or
          {"not": s}; absent means every row
  column  header name, or the prefix of the first header with it
  reduce  min or max over the selected rows
  op      <, <=, >, >=, ==, != or in (closed interval)
  bound   a number, [lo, hi] for in, or {"rows": ..., "column": ...}:
          a cell of the same table, reduced the same way
  why     the reason for the bound

A missing report, table, row, column or non-numeric cell fails its
check. Every check runs and prints its value; the exit status is 1 when
any check fails.
"""

import json
import os
import sys

OPS = {
    '<': lambda v, b: v < b,
    '<=': lambda v, b: v <= b,
    '>': lambda v, b: v > b,
    '>=': lambda v, b: v >= b,
    '==': lambda v, b: v == b,
    '!=': lambda v, b: v != b,
    'in': lambda v, b: b[0] <= v <= b[1],
}


class CheckError(Exception):
    pass


def select_rows(table, rows):
    if rows is None:
        return table['rows']
    if isinstance(rows, str):
        keep = lambda c: c == rows
    elif 'prefix' in rows:
        keep = lambda c: c.startswith(rows['prefix'])
    elif 'contains' in rows:
        keep = lambda c: rows['contains'] in c
    else:
        keep = lambda c: c != rows['not']
    return [r for r in table['rows'] if keep(r[0])]


def column_index(table, column):
    headers = table['headers']
    if column in headers:
        return headers.index(column)
    for i, h in enumerate(headers):
        if h.startswith(column):
            return i
    raise CheckError(f'no column {column!r} in {table["title"]!r}')


def tables_of(report, prefixes):
    found = []
    for prefix in [prefixes] if isinstance(prefixes, str) else prefixes:
        match = [t for t in report['tables'] if t['title'].startswith(prefix)]
        if not match:
            raise CheckError(f'no table titled {prefix!r}...')
        found += match
    return found


def measure(table, rows, column, reduce):
    col = column_index(table, column)
    selected = select_rows(table, rows)
    if not selected:
        raise CheckError(f'no rows {rows!r} in {table["title"]!r}')
    try:
        values = [float(r[col].replace(',', '')) for r in selected]
    except ValueError as e:
        raise CheckError(f'{column!r}: {e}') from None
    return {'min': min, 'max': max}[reduce](values)


def run_check(gate, reports):
    report = reports.get(gate['report'])
    if report is None:
        raise CheckError(f'no report {gate["report"]}.json')
    notes, ok = [], True
    for table in tables_of(report, gate['table']):
        value = measure(table, gate.get('rows'), gate['column'],
                        gate['reduce'])
        bound = gate['bound']
        if isinstance(bound, dict):
            bound = measure(table, bound['rows'], bound['column'],
                            gate['reduce'])
        passed = OPS[gate['op']](value, bound)
        ok = ok and passed
        notes.append(f'{table["title"][:40]}: {gate["reduce"]} '
                     f'{gate["column"]} = {value:.10g} {gate["op"]} '
                     f'{bound if gate["op"] == "in" else f"{bound:.10g}"}'
                     + ('' if passed else '  <-- out of bound'))
    return ok, notes


GATES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     'gates.json')


def load_reports(report_dir):
    """Returns (name -> report, names of the reports that do not parse)."""
    reports, unparsable = {}, []
    for name in sorted(os.listdir(report_dir)):
        if name.endswith('.json'):
            try:
                with open(os.path.join(report_dir, name)) as f:
                    reports[name[:-5]] = json.load(f)
            except ValueError as e:
                print(f'FAIL {name}\n       unparsable report: {e}')
                unparsable.append(name)
    return reports, unparsable


def evaluate(reports, gates, say=lambda line: None):
    """Runs every check; returns the names of the failed ones."""
    failed = []
    for gate in gates:
        try:
            ok, notes = run_check(gate, reports)
        except (CheckError, KeyError, IndexError, TypeError) as e:
            ok, notes = False, [f'{type(e).__name__}: {e}']
        say(('ok   ' if ok else 'FAIL ') + gate['name'])
        for note in notes:
            say('       ' + note)
        if not ok:
            say('       why: ' + gate['why'])
            failed.append(gate['name'])
    return failed


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    gates = json.load(open(GATES))['gates']
    reports, failed = load_reports(argv[1])
    failed += evaluate(reports, gates, print)
    if failed:
        print(f'perf gate: {len(failed)} failed: ' + '; '.join(failed))
        return 1
    print(f'perf gate: all {len(gates)} checks pass')
    return 0


if __name__ == '__main__':
    sys.exit(main(sys.argv))
