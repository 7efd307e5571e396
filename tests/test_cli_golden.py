"""Golden CLI outputs: every README command, the usage errors, the cap errors,
the paper's counts by every route at the 512 rail and at h = 97, and P_512 and
the 512 x 512 coefficient table in both formats, pinned as (exit code, sha256
of stdout, sha256 of stderr).

GOLDEN is both the list of commands and their pins; each key is split on
spaces into argv. A refactor must leave each entry unchanged. To add a
command, add its key with the value None; to re-record after a deliberate
output change, leave the keys as they are. Then run
`PYTHONPATH=src python tests/test_cli_golden.py`, which prints the table with
every key's outcome, and paste it over GOLDEN.
"""

import contextlib
import hashlib
import io
import sys

import pytest

from dyck312.cli import main

# fed to every command; only map reads it. Lines 4, 5, 7, 10 and 11 are malformed.
MAP_STDIN = "UUDUDD\n1\n\n3 1 2\nUDX\n2 3 1\nUDD\n1,2\n  UD  \nx y\n1 1\n"


def outcome(command: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(MAP_STDIN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(command.split())
            except SystemExit as exc:
                rc = exc.code
    finally:
        sys.stdin = saved_stdin
    out_sha, err_sha = (hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err))
    return rc, out_sha, err_sha


GOLDEN = {
    'count --h 1 --n-max 8 --method recurrence --format text': (0, '34ca537b2d73499fea6dec6fc04ce7ddd2ad7a9c2141d3e32c67d68cd8aaebb0', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 1 --n-max 8 --method recurrence --format csv': (0, 'd4757aa33daa3fc5068ff67c8885f55046f528e9e817f5ad4b98d130e30bc3ee', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 1 --n-max 8 --method recurrence --format json': (0, '2c849a984041aa9608c83b1ecc5b0d3b24fbacecb1b992ad06abe47e38515860', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 1 --n-max 8 --method series --format text': (0, '34ca537b2d73499fea6dec6fc04ce7ddd2ad7a9c2141d3e32c67d68cd8aaebb0', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 1 --n-max 8 --method series --format csv': (0, '147422be35ad2ad72c9018619f60a11b569e6086a3aa6bb8329f582b3ded77b8', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 1 --n-max 8 --method series --format json': (0, 'd849df26a4c00678ac54eeddcc59b7488ff2fb7e2142ab4552838b9a022ce40f', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 1 --n-max 8 --method matrix --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'e9985772b7232af91cde2f37e4bb694a32385f6afaae5ad9324518703962991f'),
    'count --h 1 --n-max 8 --method matrix --format csv': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'e9985772b7232af91cde2f37e4bb694a32385f6afaae5ad9324518703962991f'),
    'count --h 1 --n-max 8 --method matrix --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'e9985772b7232af91cde2f37e4bb694a32385f6afaae5ad9324518703962991f'),
    'count --h 1 --n-max 8 --method brute --format text': (0, '34ca537b2d73499fea6dec6fc04ce7ddd2ad7a9c2141d3e32c67d68cd8aaebb0', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 1 --n-max 8 --method brute --format csv': (0, '3c28f206e2613fd968a283b236a2e4c66a2648b91f1a19743527aa1a9570055d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 1 --n-max 8 --method brute --format json': (0, '843ca96c9124553b2938ef44e53e51095fa0ccc2315ccb9c07f7a4f4a6dd8460', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 1 --n-max 8 --method eco --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'b5249509ca5600cff2a45996b5d2950e8ce677efefd1001317952d8211ef17f2'),
    'count --h 1 --n-max 8 --method eco --format csv': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'b5249509ca5600cff2a45996b5d2950e8ce677efefd1001317952d8211ef17f2'),
    'count --h 1 --n-max 8 --method eco --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'b5249509ca5600cff2a45996b5d2950e8ce677efefd1001317952d8211ef17f2'),
    'count --h 1 --n-max 8 --method all --format text': (0, '34ca537b2d73499fea6dec6fc04ce7ddd2ad7a9c2141d3e32c67d68cd8aaebb0', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 1 --n-max 8 --method all --format csv': (0, 'fa4379ead7fbc597fe451c16867d65877056ed1f8661bd9a5bd3b7ab980e424d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 1 --n-max 8 --method all --format json': (0, '15484812579e806a0200e9b3c49234a82d36328d9e4c31fdbe59beee590a45dc', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 2 --n-max 8 --method recurrence --format text': (0, '30702384dae0a7198583578b0f9a90dd83049144dfebb32c37744b4b1cfce6ca', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 2 --n-max 8 --method recurrence --format csv': (0, '49331da28702a0685a856296fd7b340db0faaae95004aaa93d623bf80e26df22', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 2 --n-max 8 --method recurrence --format json': (0, '455f9e510db5b57da8add93cbcd50b6b71622fd5ca5e646080f6164ace4e8fad', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 2 --n-max 8 --method series --format text': (0, '30702384dae0a7198583578b0f9a90dd83049144dfebb32c37744b4b1cfce6ca', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 2 --n-max 8 --method series --format csv': (0, '09618b288d5b7c282fb02db662d967c36f53db26cf4b237c514c959f08abe95e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 2 --n-max 8 --method series --format json': (0, '37c84e217e1e075764d51b2f445c238ef468755b2c9b52dc741c7430b870e36a', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 2 --n-max 8 --method matrix --format text': (0, '30702384dae0a7198583578b0f9a90dd83049144dfebb32c37744b4b1cfce6ca', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 2 --n-max 8 --method matrix --format csv': (0, 'de996827f586828d05b576769479de4856c8160e297f1182f90e5190fec78a8f', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 2 --n-max 8 --method matrix --format json': (0, '26846e41596bf5057e88b064945312b76700448dcd2a8ccc4a533f55f4a0eba5', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 2 --n-max 8 --method brute --format text': (0, '30702384dae0a7198583578b0f9a90dd83049144dfebb32c37744b4b1cfce6ca', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 2 --n-max 8 --method brute --format csv': (0, '8731c84aed05ec20b83df647f459fdc03e89865579d604c37b4326683b7d90f4', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 2 --n-max 8 --method brute --format json': (0, 'b28f5ce0b5ae4de7f63201ccaf72efc7c8ba28257e306ea056c7f08452555f6c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 2 --n-max 8 --method eco --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'b5249509ca5600cff2a45996b5d2950e8ce677efefd1001317952d8211ef17f2'),
    'count --h 2 --n-max 8 --method eco --format csv': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'b5249509ca5600cff2a45996b5d2950e8ce677efefd1001317952d8211ef17f2'),
    'count --h 2 --n-max 8 --method eco --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'b5249509ca5600cff2a45996b5d2950e8ce677efefd1001317952d8211ef17f2'),
    'count --h 2 --n-max 8 --method all --format text': (0, '30702384dae0a7198583578b0f9a90dd83049144dfebb32c37744b4b1cfce6ca', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 2 --n-max 8 --method all --format csv': (0, '4328480ddb0b2f56a388cfd63e6b136367abed3796a017f039b5fba82c795fb9', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 2 --n-max 8 --method all --format json': (0, '2dd9832418d47dc3e70859b84b8cad0a211ba263fd524c4cc031bb8a1d405c17', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 3 --n-max 8 --method recurrence --format text': (0, '9c9e6afb1363ea98e55e60dbc8eab084516572de7e7d18986bea494790652d4b', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 3 --n-max 8 --method recurrence --format csv': (0, '7fbd15f1745ea4b1e1c42c11c1f9508ba1d2f19a981fef0b6bf0b583e1e2c4bd', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 3 --n-max 8 --method recurrence --format json': (0, 'b2801942509e70757b0fd650685caf3e97579aa5e16a95f1b3c53465848d3bb5', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 3 --n-max 8 --method series --format text': (0, '9c9e6afb1363ea98e55e60dbc8eab084516572de7e7d18986bea494790652d4b', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 3 --n-max 8 --method series --format csv': (0, '56f3e089b569eebc0306710fadd2c308dc1d3e57aa0b7abbf5b7e92a43b96c77', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 3 --n-max 8 --method series --format json': (0, 'cc305d112a2e1c6c16d9bc2c46e5315df7ea95280e4c82126db2620f864a244d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 3 --n-max 8 --method matrix --format text': (0, '9c9e6afb1363ea98e55e60dbc8eab084516572de7e7d18986bea494790652d4b', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 3 --n-max 8 --method matrix --format csv': (0, '5cd718366961fc8204082dd7b909f08282f4f74d64a0131d272e94a4aa5ad782', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 3 --n-max 8 --method matrix --format json': (0, 'a37c17241772388e78e195b99f44183920a2255cd214da7d7b12caaef9e5af72', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 3 --n-max 8 --method brute --format text': (0, '9c9e6afb1363ea98e55e60dbc8eab084516572de7e7d18986bea494790652d4b', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 3 --n-max 8 --method brute --format csv': (0, '275b4eecd9004dc5d76a5ce65593e9adb6d661cf6bb8c7d125ce1f6d98dfc198', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 3 --n-max 8 --method brute --format json': (0, '96b63728e12a2668842bb31000bf671e35675124454fb7c2d7bcf9be5e508813', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 3 --n-max 8 --method eco --format text': (0, '9c9e6afb1363ea98e55e60dbc8eab084516572de7e7d18986bea494790652d4b', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 3 --n-max 8 --method eco --format csv': (0, '58b83c5ced1feda8a95993f322089ee0c0ff2111e1c25b7c563c53a3de093716', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 3 --n-max 8 --method eco --format json': (0, 'd2c9d886e18562f04b1e5b7b05549d1c738f0b24af03d029835c7729d28df2aa', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 3 --n-max 8 --method all --format text': (0, '9c9e6afb1363ea98e55e60dbc8eab084516572de7e7d18986bea494790652d4b', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 3 --n-max 8 --method all --format csv': (0, '27304ea19eebc9b69f101d443bd33a09d4b1b07d6c02c32a95ae4171a70e2383', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 3 --n-max 8 --method all --format json': (0, 'a69e5189ae087fed42bfede7fcebf7efa57700103d33fa3c7c340ebb56ff22d9', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 5 --n-max 8 --method recurrence --format text': (0, '3bdbc0815abd05ae9cbde8c68efb68635c346e358c34fd59405c95d583bde893', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 5 --n-max 8 --method recurrence --format csv': (0, 'e924b92a5731b6f38567fa988b83cb4643c984e74dd90dd2a623bac7bcb0cf65', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 5 --n-max 8 --method recurrence --format json': (0, '9e1344e08554635c63245e62f198647458d7d4fbdada899b53e07c42128e64cc', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 5 --n-max 8 --method series --format text': (0, '3bdbc0815abd05ae9cbde8c68efb68635c346e358c34fd59405c95d583bde893', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 5 --n-max 8 --method series --format csv': (0, '6346a8b3df91dfeffeb5c50641932ee903bd2a4e348beee5ca12a0844421a729', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 5 --n-max 8 --method series --format json': (0, '7937b0bd0b3112c7dc3304825fe9b3cda5a458f4725fc65a794b0104f0047784', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 5 --n-max 8 --method matrix --format text': (0, '3bdbc0815abd05ae9cbde8c68efb68635c346e358c34fd59405c95d583bde893', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 5 --n-max 8 --method matrix --format csv': (0, '1c2e7e333bfdbbd1b86f1ee7fdc10bd92a42e36898b9be3773dad93e3f75ac1b', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 5 --n-max 8 --method matrix --format json': (0, 'e4336d74f9413d459d41d1d21de4f961d0d8acb15e317cbe462cc233bf4cbb65', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 5 --n-max 8 --method brute --format text': (0, '3bdbc0815abd05ae9cbde8c68efb68635c346e358c34fd59405c95d583bde893', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 5 --n-max 8 --method brute --format csv': (0, '71f40cc9f01c44ee5f2e51a643853d4ac19a67abd83b2a8053c83c5eec8aaae1', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 5 --n-max 8 --method brute --format json': (0, '6c1b501dfaff83a758eb3a43f1e323c3f6100a4a9970ec8af9825e9aa2c42089', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 5 --n-max 8 --method eco --format text': (0, '3bdbc0815abd05ae9cbde8c68efb68635c346e358c34fd59405c95d583bde893', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 5 --n-max 8 --method eco --format csv': (0, '0e3343ddab4265e5aab3c80351c75b7f0591432ffd03ced40bc3ca13d7b08679', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 5 --n-max 8 --method eco --format json': (0, 'e15312d98f16767126b7decbb57825196d2e6a1059dc6ba130d8f885d143542a', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 5 --n-max 8 --method all --format text': (0, '3bdbc0815abd05ae9cbde8c68efb68635c346e358c34fd59405c95d583bde893', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 5 --n-max 8 --method all --format csv': (0, '14ed8ddb708c49dc8ad095089b946f12644cd9b50f4398b6caab9f16f621367f', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 5 --n-max 8 --method all --format json': (0, '0a645cf54195856d0980e111146f37bc2f95adddabab632abb3abb1708bdc273', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 3 --n-max 10': (0, '10ebec836205ce96da122985077afad4bb71326b365b78ee49843946212191ec', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 2 --n-max 16 --method series': (0, '8ed363109f4ad4cb578f9db874c0af2edc700b787da7d26fa63b3ffddce85456', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 3 --n-max 6 --method brute --k 3': (0, 'd8c8f249183eab1cda24cf317bcd81092d81fe97e41d2704b8a67c3c93e3308f', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 3 --n-max 6 --method brute --k 3 --format json': (0, 'a6c8e544860a9c843c5926389c0e9560e22201ac0ffa2e6e948497aa173804c9', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 300 --n-max 512 --method recurrence': (0, '370a73b5dffde0fe9e7f4eedeb3369a58c75d28c240cd4b01f82650cefd880b6', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 4 --n-max 300 --method series': (0, 'ab1cb79539de04623d92894278dc4474fc9c04e8e1f1a07aacfc420d7e39f2ab', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 3 --n-max 513 --method recurrence': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'c8aacc3fabd470b773348c673d94a60c1169008972542056c6fbc1c01e86ae7c'),
    'count --h 2 --n-max 600': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '20b23746cfe7955869ebbb3e3b465061f8555e9f675a4bad27136fb0155d66a1'),
    'count --h 3 --n-max 15 --method brute': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'e184f16c60242ce15116f20bb88e12b215773abe0defbaf74ec1d8fd6f3d2092'),
    'count --h 3 --n-max 13 --method eco': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'b93f62cf2adff65abbd0235dbc46935d28de4bffbc3124f04c4a481abd878b25'),
    'count --h 3 --n-max 15': (0, 'de849d623f12eaf8705c203130b5c63d2cb453c5bff6a556b721bf88ab9d9544', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 0 --n-max 3': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '2a1f209eb39cd37a4c86cd652e84a70d9aca41e730fb4235a721b6be855be71c'),
    'count --h 3 --n-max -1': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '68d9fd3ffff220681c47ad0c0b7e0ca0ec4e24ff3856922dfab8b6e6cbc755da'),
    'count --h 2 --n-max 4 --k 3 --method series': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '69b962df51b07b01feec6ab580779741502bb1a90ea9899ccc973a4e92d94112'),
    'count --h 5 --n-max 12 --method all': (0, '4c929e2573c2771a9d185c9f3f375b8503fa0cce887a7c4c3e353f37bbffb39b', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 1000000 --n-max 12 --method all': (0, 'acf217c069fa5e308e119ee0501a730368ec18b31c62ab5c014fa0664d0dba67', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 512 --n-max 512 --method all': (0, 'b5306afe0973233d9e6979ec4ba4fda5984b4898cd636c420a3eaf76bc4e4485', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --h 97 --n-max 512 --method all': (0, '20754e317467aa06e2aa023d1a556551941b9da8a5f5d91da505a94e07cc458f', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'list --h 3 --n 0 --kind paths --format text': (0, 'a25805d1e3b0d0da1525d6a459eba04eb98ce7688677364137eb05d00606092d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'list --h 3 --n 4 --kind paths --format text': (0, 'ce01f0a7cb629e3e346e769752055adebc49096a004b498b482b64d8db592648', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'list --h 3 --n 0 --kind paths --format csv': (0, '7b990f39917a431de385e009048dbde6992f83c47e3bc9c60ff75999337c9ff1', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'list --h 3 --n 4 --kind paths --format csv': (0, '69f6a9009aa9e8e4ab8aa18a06fc870c37f4dc6df25784cc070a8c918c8503a7', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'list --h 3 --n 0 --kind paths --format json': (0, 'e773cf7c49be134914b2c89cf06def8c4198230e362b972858c3e34e93ec7cbe', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'list --h 3 --n 4 --kind paths --format json': (0, '3b6d0d41de814d39c799aaf3bb8515a675070ef298224e361d4c95801d64a03e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'tree --h 3 --depth 0 --kind paths --format text': (0, 'a25805d1e3b0d0da1525d6a459eba04eb98ce7688677364137eb05d00606092d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'tree --h 3 --depth 5 --kind paths --format text': (0, '5d0fd71c0754081289f713e7b8908850293dd7b1415171f327dded5813c1d6ae', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'tree --h 3 --depth 0 --kind paths --format json': (0, 'a15cca12123965cde9603581d7ae601b6fd6f32c3b8049490245dbde6b656402', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'tree --h 3 --depth 5 --kind paths --format json': (0, '13b7c562921499d3849f4341c9541486473f7d53f472a259e070a28375c0dce8', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'list --h 3 --n 0 --kind perms --format text': (0, 'a25805d1e3b0d0da1525d6a459eba04eb98ce7688677364137eb05d00606092d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'list --h 3 --n 4 --kind perms --format text': (0, '71872bda112a7c815b975febb25d2214cb8fdeb498ece5a0fb40b7458369be55', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'list --h 3 --n 0 --kind perms --format csv': (0, '7b990f39917a431de385e009048dbde6992f83c47e3bc9c60ff75999337c9ff1', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'list --h 3 --n 4 --kind perms --format csv': (0, '9c5d753959ad3ba5edbbc5455474a7bc5d83f6bd699b1ff0ec1cdba749cd0371', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'list --h 3 --n 0 --kind perms --format json': (0, '401b412bd0ee694a27bf6bf0fe4b8c04ed673b57cfb29e948459310c2bff6623', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'list --h 3 --n 4 --kind perms --format json': (0, '91ff0618baa351b8a422e90b09f06f1b8b4afa474f95c9af557a7960d7ce6eb0', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'tree --h 3 --depth 0 --kind perms --format text': (0, 'a25805d1e3b0d0da1525d6a459eba04eb98ce7688677364137eb05d00606092d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'tree --h 3 --depth 5 --kind perms --format text': (0, '0dd9f362269723c5b00488525ca59643812a91a3e28d74bf2b82f75ad63b7df5', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'tree --h 3 --depth 0 --kind perms --format json': (0, '556ec15f31a704a93432e87daf1bdac63949d7f08810cf95ec610bb828cd0a38', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'tree --h 3 --depth 5 --kind perms --format json': (0, '42e569930f0797b5e0472d884d39ea49a29ed0f21e761743dd9af3506116b86d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'list --h 4 --n 0 --kind paths --format text': (0, 'a25805d1e3b0d0da1525d6a459eba04eb98ce7688677364137eb05d00606092d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'list --h 4 --n 4 --kind paths --format text': (0, 'ec6d790221621d5939a5e01b1c764e0d443792eb17edbfea070cec7a768751da', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'list --h 4 --n 0 --kind paths --format csv': (0, '7b990f39917a431de385e009048dbde6992f83c47e3bc9c60ff75999337c9ff1', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'list --h 4 --n 4 --kind paths --format csv': (0, 'e6a612310b91e6de0f30efdbdb6fceb1a4d234592635693f124ebfd9e53df3d5', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'list --h 4 --n 0 --kind paths --format json': (0, 'ab617770019165c6123c489a4a7342f4c845c01716f17f063b437ff656ee786c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'list --h 4 --n 4 --kind paths --format json': (0, '69770bce1fe857d26c36643a60f52f402868dbef6bfa5066d886c429a37503e2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'tree --h 4 --depth 0 --kind paths --format text': (0, 'a25805d1e3b0d0da1525d6a459eba04eb98ce7688677364137eb05d00606092d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'tree --h 4 --depth 5 --kind paths --format text': (0, '8b9daebf282bda642cc1b38bac1efb9185673908b9f3a31625c4cea17a39e04d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'tree --h 4 --depth 0 --kind paths --format json': (0, 'c341c7b8770a6937c9e046d57881d843e6ca9c4ad6a617fd3f32b993eb981f2c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'tree --h 4 --depth 5 --kind paths --format json': (0, 'b594b4dcb459ffc7f585417b478dbc25c743f504a2958d541ee468297ff44756', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'list --h 4 --n 0 --kind perms --format text': (0, 'a25805d1e3b0d0da1525d6a459eba04eb98ce7688677364137eb05d00606092d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'list --h 4 --n 4 --kind perms --format text': (0, 'f2fc6822cd9d7701b93cd3acd9d0996b5399098eaaf0a440a34ee7437da75d0e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'list --h 4 --n 0 --kind perms --format csv': (0, '7b990f39917a431de385e009048dbde6992f83c47e3bc9c60ff75999337c9ff1', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'list --h 4 --n 4 --kind perms --format csv': (0, '98b373efb268fb69d85d8109f7e89d066fb0e0e1b1d8a6f8669c06ba439160c9', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'list --h 4 --n 0 --kind perms --format json': (0, '3f05681c736b1c41b81ce6261f78d69943fd12a9644a3d233b1a192bc6cdf7bf', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'list --h 4 --n 4 --kind perms --format json': (0, '2c392750c25165c1892cca6c71cd60d7c927b284999871f6ad05d770448f7b8c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'tree --h 4 --depth 0 --kind perms --format text': (0, 'a25805d1e3b0d0da1525d6a459eba04eb98ce7688677364137eb05d00606092d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'tree --h 4 --depth 5 --kind perms --format text': (0, 'a5e6c8811895cafefcebea1ea26a84de9fb731442510e33018ff298c4c982051', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'tree --h 4 --depth 0 --kind perms --format json': (0, '41f33a06b433bd446eb90413078c0528521dcae77fbd4efd81fc9468eacd2e81', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'tree --h 4 --depth 5 --kind perms --format json': (0, 'c663b9b49315b50433f7a0f8770e2b4c1f336f47eb6c3485996035323be13a57', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'list --h 3 --n 3': (0, '7980b8700fec2cbd7aa9051fae505c2a82db2fce5fb0a24497e1ba67b2020797', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'list --h 2 --n 2': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'e695bc30978c0889f01cc85c56cdcef360fc56d29ae5fc1e788c4bbf57b6a1b1'),
    'list --h 3 --n -1': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '3abe844e6acee2d7ffa652d0e34be6369f3d8141c80bfc15a33bcb7ac8e7a54c'),
    'list --h 3 --n 13': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'c7db0042579fc597425103a1ea55b12ae31f579a272ac99f0314964942c88186'),
    'tree --h 3 --depth 4': (0, 'e37b382a31ac0509e1e86abb3340e9e95c87ccfba3a6e9f88cee6d907e2a4655', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'tree --h 3 --depth 4 --kind perms': (0, '5b653a356ddfd65cf14e162e743853ede47e9056781810de031a339e1ea4f252', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'tree --h 2 --depth 0': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'e695bc30978c0889f01cc85c56cdcef360fc56d29ae5fc1e788c4bbf57b6a1b1'),
    'tree --h 3 --depth -1': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '3abe844e6acee2d7ffa652d0e34be6369f3d8141c80bfc15a33bcb7ac8e7a54c'),
    'tree --h 3 --depth 13': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'c7db0042579fc597425103a1ea55b12ae31f579a272ac99f0314964942c88186'),
    'matrix --h 2 --format text': (0, 'f8e436185d5fa1ce802f69712472c2c11d0d66461ccb3fbba4efb42b76823ae3', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'matrix --h 2 --format json': (0, '14baed9d2717a9c05a750d8a054efa09ea5f69bf6fce6d4c0ae53441ddb60f8e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'matrix --h 3 --format text': (0, '40d0ab1a4f56650deca2a449e7a237da0627ae9ed6b33e3eea720a329afd297a', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'matrix --h 3 --format json': (0, '841def3f3f1ddbf58bf3fa9844289590c0442c64c61bc4c43a2bca626dae1fe0', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'matrix --h 5 --format text': (0, '31f28cbff03a0d9b8b7c36ec16519aa1ebecd3701eb1cf575bc833ae1ace56fc', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'matrix --h 5 --format json': (0, '2514ed945417a960c214102aef4bd54bea9b6c9f77d6670c5fcb62c210100c0e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'matrix --h 512': (0, '0ac791fd5209af38d6067da3c03a94e7f2d53851bb79e08dcb2f16a6f1562a91', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'matrix --h 512 --format json': (0, 'd45187d99f310643d7e4a5329d8c8a86d1cf5dece55b2d3ea7a65b4a639fd08a', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'matrix --h 1': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '0ac5b422c9f800e96154b498ec6a757d14f1d0f01ec2d617f820b0ca51392f75'),
    'table --h-max 14 --j-max 8': (0, '9e00c798e7746827651927fcc8baf1e1154e24d1e251f8257d6b45657c9b87c0', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'table --h-max 512 --j-max 512 --format csv': (0, '16fcb7e11a00b84de00b1c44967cf7ddc72860e05027ef4bc8b8826c1d10a629', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'table --h-max 512 --j-max 512 --format json': (0, 'b559bb5ea7c23770d99ae3b39210c8402cf3e41985a7845f96c49599bbc69154', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'table --h-max 6 --j-max 4 --format text': (0, 'c29e9e319ea69354ca75488cd6a748901381a2da58dbc960bd182febc5c03f8b', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'table --h-max 6 --j-max 4 --format csv': (0, 'b1399e795baff9f7036cfce1fd867cac6625d85ffa18c6cb5e881795cdc12381', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'table --h-max 6 --j-max 4 --format json': (0, '8805037d7b72039cc44e3b2e44c5770524ab80eecb36bf7ddf1f69fe53f0654c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'table --h-max 0': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '99a2584d9bd0aa85906f00c23d7536283d731279ac3d4c009ce6676e4247fc3e'),
    'verify --scope all': (0, '6f52f064be85caf7c31ffc580b08418c9cc7b1e494d6c744f436cd0dedb569ef', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --scope bijection': (0, 'bcc76dd4bc733dfee311beadc5ae9785bb0688d817b043977a36d8ffbf34ced2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --scope identities': (0, '5c32bd83b522215a606677cca5a82ae3a5dd663a723949370866ef2fe2b688dc', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --scope eco': (0, 'bcc0976061e23ca88c10d35ba9ce6926b8c94dad664c94fc972177882678d925', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --scope matrix': (0, '781c3a3527d2576c783aec0bdc0971cab3c1d1f711e0a967ab67998ac3aa05fb', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --format json': (0, 'd9fabf5537cebc0efd2cb7f20dee3ba2ca719951d853d04d10fd2880aa495bc8', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --n-max 5 --h-max 3 --identity-n-max 6': (0, '5056c9e8fcdfdd284ada39f885b440d3cc0f084c02b2cc90b01564393752ceb6', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'map --direction auto': (1, '51d9b05f7efa30ebadb8e58e5ca68a92240a435838a58591a9c8297d77d9e9e2', '30913568d3be3094268ca839d7b9bcc8973dfcbc1c882bdbd38b14d47d7747c0'),
    'map --direction to-perm': (1, '81dc1116592e6abe9ae8d94da266a61eeb86d1f2df813817de7139ff226e9b11', 'aba5f77a0a1aab1c5c6e7fc2002df6fbd2b004acac7a616d7aeb6ad2d3471124'),
    'map --direction to-path': (1, '9fafab1c8e43fe58caa68efef323d76b88adcf05a71962b2b2af0738999a8e4c', 'ab55824b4e375892ef42a5aa041d4a392999edd9bb0e73219b70faa4aa845028'),
    '': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '4a597590e90331bfa878a0f4cfe85cf09d4c46d4805a0a87c486b28b769d20fb'),
    'bogus': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '274ca59d05cc3fd3ecc01b26f538a509d0b9c32a311410a797422fc7b783b4ee'),
    'list --h 3': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '285a30651b4e0a901ea39d1ea41c99da694ed906dd860c62396a72a78c8b9779'),
    'tree --h 3 --depth 2 --kind trees': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '9de8f2f64515d00144ffa35bf9efc22957ff40896eb477b97e99c2f63469dad8'),
    'map --direction sideways': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'f4dc22296dbd9c1e3a56392543ce80ee6d507edce153fd4170bff0939dfcc976'),
    'matrix': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'cdd0aae2a5737aea05a4d7ebdc626cc52a0d4992678cd44c25ece6ac8b64c203'),
    'table --h-max x': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '5e0c17380ef92f48db3d804000a9be8e14032c53d6ed3bcee91e5829030e71fc'),
    'verify --scope nope': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'f7a22e740fb6c1985e4b054d8aee1aff2e60c343a5bae9a8927a4b8ac782c5e2'),
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_golden(command):
    assert outcome(command) == GOLDEN[command]


@pytest.mark.parametrize("command", ["count --h 3 --n-max 4", "list --h 3 --n 4", "tree --h 3 --depth 4"])
def test_cap_is_not_an_option(command):
    # the caps are constants: a cap given on the command line is a usage error
    rc, out_sha, _ = outcome(command + " --cap 5")
    assert (rc, out_sha) == (2, hashlib.sha256(b"").hexdigest())


if __name__ == "__main__":
    for command in GOLDEN:
        print(f"    {command!r}: {outcome(command)!r},")
