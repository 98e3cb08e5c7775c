"""Wire-format semantics: framing, stability, and error mapping."""

import json

import pytest

from repro.server import protocol


class TestDecode:
    def test_roundtrip_minimal_request(self):
        request = protocol.decode_line('{"id": 1, "method": "ping"}')
        assert request.id == 1
        assert request.method == "ping"
        assert request.params == {}

    def test_params_passed_through(self):
        request = protocol.decode_line(
            '{"id": "a", "method": "check", "params": {"units": ["x.c"]}}'
        )
        assert request.params == {"units": ["x.c"]}

    def test_invalid_json_is_parse_error(self):
        with pytest.raises(protocol.ProtocolError) as err:
            protocol.decode_line("{nope")
        assert err.value.code == protocol.PARSE_ERROR

    @pytest.mark.parametrize(
        "line",
        ["[1,2]", '"just a string"', "42"],
    )
    def test_non_object_is_invalid_request(self, line):
        with pytest.raises(protocol.ProtocolError) as err:
            protocol.decode_line(line)
        assert err.value.code == protocol.INVALID_REQUEST

    def test_missing_method_is_invalid_request(self):
        with pytest.raises(protocol.ProtocolError) as err:
            protocol.decode_line('{"id": 1}')
        assert err.value.code == protocol.INVALID_REQUEST

    def test_non_object_params_is_invalid_params(self):
        with pytest.raises(protocol.ProtocolError) as err:
            protocol.decode_line('{"id": 1, "method": "check", "params": [1]}')
        assert err.value.code == protocol.INVALID_PARAMS


class TestEncode:
    def test_one_line_per_frame(self):
        frame = protocol.encode({"id": 1, "result": {"ok": True}})
        assert frame.endswith("\n")
        assert "\n" not in frame[:-1]

    def test_serialization_is_stable(self):
        """Same payload, same bytes: key order must never leak through."""
        first = protocol.encode({"b": 1, "a": {"d": 2, "c": 3}})
        second = protocol.encode({"a": {"c": 3, "d": 2}, "b": 1})
        assert first == second
        assert first == '{"a":{"c":3,"d":2},"b":1}\n'

    def test_responses_carry_protocol_version(self):
        ok = protocol.result_response(7, {"x": 1})
        bad = protocol.error_response(7, protocol.INTERNAL_ERROR, "boom")
        assert ok["protocol"] == protocol.PROTOCOL_VERSION
        assert bad["protocol"] == protocol.PROTOCOL_VERSION
        assert ok["id"] == bad["id"] == 7

    def test_error_data_is_optional(self):
        plain = protocol.error_response(1, -1, "m")
        detailed = protocol.error_response(1, -1, "m", {"k": "v"})
        assert "data" not in plain["error"]
        assert detailed["error"]["data"] == {"k": "v"}

    def test_encoded_frames_parse_back(self):
        payload = protocol.result_response(3, {"tally": {"errors": 0}})
        assert json.loads(protocol.encode(payload)) == payload


class TestSplice:
    def test_splice_is_byte_identical_to_full_encode(self):
        """The coalescing fan-out contract: splicing a pre-encoded result
        fragment around a request id must produce exactly the bytes
        ``encode(result_response(...))`` would."""
        result = {
            "tally": {"errors": 1, "warnings": 0},
            "units": [{"name": "x.c", "diagnostics": []}],
        }
        fragment = protocol.encode_fragment(result)
        for request_id in (1, 0, -3, "abc", None, ["compound", 2]):
            spliced = protocol.splice_result(request_id, fragment)
            direct = protocol.encode(
                protocol.result_response(request_id, result)
            )
            assert spliced == direct

    def test_fragment_matches_encode_inner_bytes(self):
        payload = {"b": 1, "a": {"d": 2, "c": 3}}
        assert protocol.encode_fragment(payload) + "\n" == protocol.encode(
            payload
        )

    def test_engine_rows_use_the_wire_encoding(self):
        # the engine encodes resident report rows itself and the daemon
        # splices them into replies verbatim: both must agree byte for byte
        from repro.engine.incremental import _encode

        payload = {"ψ": [1.5e-07, None, True], "b": {"z": "é\n", "a": 0.1}}
        assert _encode(payload) == protocol.encode_fragment(payload)

    def test_overloaded_code_is_distinct_and_server_range(self):
        codes = {
            protocol.PARSE_ERROR,
            protocol.INVALID_REQUEST,
            protocol.METHOD_NOT_FOUND,
            protocol.INVALID_PARAMS,
            protocol.INTERNAL_ERROR,
        }
        assert protocol.OVERLOADED == -32005
        assert protocol.OVERLOADED not in codes
        # JSON-RPC reserves -32000..-32099 for implementation-defined
        # server errors; OVERLOADED must stay inside it
        assert -32099 <= protocol.OVERLOADED <= -32000
