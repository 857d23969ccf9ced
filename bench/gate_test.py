#!/usr/bin/env python3
"""Self-test of bench/gate.py: every check in bench/gates.json fires.

Usage: python3 bench/gate_test.py REPORT_DIR

REPORT_DIR holds reports the gate passes (CI's bench-smoke). gate.py
must exit 0 on them, and exit 1 naming a report that does not parse.
Then gate.evaluate runs, in process, on copies edited for one check at
a time:

  - the cells the check reads set to its bound, and just across it: the
    gate must pass or fail as the check's operator says, and a failure
    must name that check and no other;
  - the table, the rows, the column (or the report) it reads deleted:
    the gate must fail and name the check.

Exits 1 listing every case that went the wrong way.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import gate  # noqa: E402

GATE = os.path.join(HERE, 'gate.py')
DELTA = 0.01

# (cell value relative to the bound, whether the check must pass).
EDGES = {
    '<': [(0, False), (-DELTA, True)],
    '<=': [(0, True), (DELTA, False)],
    '>': [(0, False), (DELTA, True)],
    '>=': [(0, True), (-DELTA, False)],
    '==': [(0, True), (DELTA, False), (-DELTA, False)],
    '!=': [(0, False), (DELTA, True)],
}


def run_gate_script(report_dir):
    """Runs gate.py on `report_dir`; returns (exit code, stdout)."""
    out = subprocess.run([sys.executable, GATE, report_dir],
                         capture_output=True, text=True)
    return out.returncode, out.stdout


def edge_cases(check, table):
    """(cell value, must pass) pairs around the check's bound."""
    bound = check['bound']
    if check['op'] == 'in':
        lo, hi = bound
        return [(lo, True), (hi, True), (lo - DELTA, False),
                (hi + DELTA, False)]
    if isinstance(bound, dict):
        bound = gate.measure(table, bound['rows'], bound['column'],
                             check['reduce'])
    return [(bound + d, ok) for d, ok in EDGES[check['op']]]


def deletions(check, table):
    """(what, edit) pairs that remove something the check reads."""
    col = gate.column_index(table, check['column'])

    def drop_rows(rows):
        def edit(t):
            gone = gate.select_rows(t, rows)
            t['rows'] = [r for r in t['rows'] if r not in gone]
        return edit

    def drop_column(t):
        del t['headers'][col]
        for r in t['rows']:
            del r[col]

    cases = [('rows', drop_rows(check.get('rows'))),
             ('column', drop_column)]
    if isinstance(check['bound'], dict):
        cases.append(('bound rows', drop_rows(check['bound']['rows'])))
    return cases


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    reports = {}
    for name in sorted(os.listdir(argv[1])):
        if name.endswith('.json'):
            with open(os.path.join(argv[1], name)) as f:
                reports[name[:-5]] = json.load(f)
    errors = []

    code, out = run_gate_script(argv[1])
    if code != 0:
        errors.append(f'unmodified reports: exit {code}\n{out}')
    victim = sorted(reports)[0]
    with tempfile.TemporaryDirectory() as d:
        for name, report in reports.items():
            with open(os.path.join(d, name + '.json'), 'w') as f:
                f.write('{"tables": [' if name == victim
                        else json.dumps(report))
        code, out = run_gate_script(d)
    if code == 0 or f'FAIL {victim}.json' not in out.splitlines():
        errors.append(f'unparsable {victim}.json: exit {code}')

    checks = json.load(open(gate.GATES))['gates']
    for check in checks:
        name, report = check['name'], reports[check['report']]
        cases = 0

        def expect(what, edited, must_pass, alone=False):
            """Runs the gate on `edited`: it must pass, or fail naming
            this check (and, when `alone`, no other)."""
            failed = set(gate.evaluate(edited, checks))
            if must_pass:
                wrong = bool(failed)
            else:
                wrong = name not in failed or (alone and failed != {name})
            if wrong:
                errors.append(f'{name}: {what}: failed {sorted(failed)}')

        expect('report deleted', {k: v for k, v in reports.items()
                                  if k != check['report']}, False)
        cases += 1
        for i, table in enumerate(report['tables']):
            if table not in gate.tables_of(report, check['table']):
                continue
            col = gate.column_index(table, check['column'])
            picked = gate.select_rows(table, check.get('rows'))
            for value, must_pass in edge_cases(check, table):
                edited = copy.deepcopy(reports)
                for r in edited[check['report']]['tables'][i]['rows']:
                    if r in picked:
                        r[col] = repr(round(value, 6))
                expect(f'{check["column"]} = {value:.10g}', edited,
                       must_pass, alone=True)
                cases += 1
            for what, edit in [('table', None)] + deletions(check, table):
                edited = copy.deepcopy(reports)
                tables = edited[check['report']]['tables']
                if edit is None:
                    del tables[i]
                else:
                    edit(tables[i])
                expect(f'{what} deleted', edited, False)
                cases += 1
        print(f'{name}: {cases} cases')
    for e in errors:
        print('FAIL ' + e)
    print(f'gate self-test: {len(checks)} checks, {len(errors)} errors')
    return 1 if errors else 0


if __name__ == '__main__':
    sys.exit(main(sys.argv))
